//! Offline pool forensics: read-only physical walks over a raw pool image.
//!
//! Everything here works on a bare [`PmemDevice`] **without** opening the
//! pool — no recovery runs, no lanes roll back, nothing is written. That is
//! the property `pmemcpy-doctor` needs: examining a crashed image must not
//! destroy the evidence (an `open` would roll active lanes back and bump
//! the generation). All reads go through the untimed plane, so no virtual
//! clock is required and no charges accrue.
//!
//! The doctor owns no format knowledge: every decode, plausibility rule and
//! traversal is the [`crate::layout`] one the mounted paths run, fed the
//! untimed byte source — so an image `open` refuses is an image the doctor
//! faults, with the same message. Where a mounted path stops at the first
//! violation, the doctor records it and keeps going. Problems are collected
//! as strings, never panics.

use crate::error::PmdkError;
use crate::hashtable::STRIPES;
use crate::layout::*;
use pmem_sim::flight::{self, FlightEvent};
use pmem_sim::PmemDevice;

/// The shared validator's message, without the mounted-path error prefix.
fn message(e: PmdkError) -> String {
    match e {
        PmdkError::BadPool(m) => m,
        other => other.to_string(),
    }
}

/// One busy transaction lane: its header words, and the undo records and
/// alloc intents its log decodes to (none for a lane that faults).
#[derive(Debug, Clone)]
pub struct LaneReport {
    pub index: u64,
    pub state: u32,
    pub log_len: u32,
    pub records: usize,
    pub intents: usize,
}

impl LaneReport {
    pub fn state_name(&self) -> &'static str {
        match self.state {
            LANE_IDLE => "idle",
            LANE_ACTIVE => "ACTIVE",
            _ => "CORRUPT",
        }
    }
}

/// All lane headers plus idle/active/corrupt tallies.
#[derive(Debug, Clone, Default)]
pub struct LaneSummary {
    pub idle: u64,
    pub active: u64,
    pub corrupt: u64,
    /// Only the non-idle lanes (the interesting ones).
    pub busy: Vec<LaneReport>,
    /// What recovery would refuse: a lane state other than IDLE or ACTIVE,
    /// or the log of an ACTIVE lane that the shared decoder faults.
    pub errors: Vec<String>,
}

impl LaneSummary {
    pub fn all_idle(&self) -> bool {
        self.active == 0 && self.corrupt == 0
    }
}

pub fn read_lanes(dev: &PmemDevice) -> LaneSummary {
    let mut out = LaneSummary::default();
    for i in 0..LANES {
        let base = lane_offset(i);
        let state = dev.u32_at(base + lane::STATE);
        // What lane recovery would decode, through the decoder it uses.
        let log = match state {
            LANE_IDLE => continue,
            LANE_ACTIVE => lane_log(dev, base),
            s => bad(format!("lane {i} has invalid state {s}")),
        };
        let log = log.unwrap_or_else(|e| {
            out.errors.push(message(e));
            vec![]
        });
        let intents = log.iter().filter(|r| r.is_intent()).count();
        out.busy.push(LaneReport {
            index: i,
            state,
            log_len: dev.u32_at(base + lane::LOG_LEN),
            records: log.len() - intents,
            intents,
        });
    }
    out.active = out.busy.iter().filter(|l| l.state == LANE_ACTIVE).count() as u64;
    out.corrupt = out.busy.len() as u64 - out.active;
    out.idle = LANES - out.busy.len() as u64;
    out
}

/// Physical heap walk: every block header in address order.
#[derive(Debug, Clone, Default)]
pub struct HeapReport {
    pub blocks: usize,
    pub live_allocations: usize,
    pub free_blocks: usize,
    pub allocated_bytes: u64,
    pub free_bytes: u64,
    pub largest_free_block: u64,
    /// Linkage violations (bad magic, overrun, bad state).
    pub errors: Vec<String>,
}

impl HeapReport {
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Tally the heap's physical block chain through the walk `Heap::rebuild`
/// mounts with, collecting every violation it reports.
pub fn walk_heap(dev: &PmemDevice) -> HeapReport {
    let mut out = HeapReport::default();
    walk_blocks(dev, heap_start(), dev.size() as u64, |block| {
        match block {
            Ok((_, h)) if h.state == BLOCK_FREE => {
                out.blocks += 1;
                out.free_blocks += 1;
                out.free_bytes += h.size;
                out.largest_free_block = out.largest_free_block.max(h.size);
            }
            Ok((_, h)) => {
                out.blocks += 1;
                out.live_allocations += 1;
                out.allocated_bytes += h.size;
            }
            Err(e) => out.errors.push(message(e)),
        }
        true
    });
    out
}

/// One reachable hashtable entry (key + value location, not the payload).
#[derive(Debug, Clone)]
pub struct EntryReport {
    pub key: Vec<u8>,
    pub value_off: u64,
    pub value_len: u64,
    /// The header length the entry names (0: none).
    pub header_len: u64,
}

/// Per-stripe chain statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StripeStat {
    pub buckets: u64,
    pub entries: u64,
    pub longest_chain: u64,
}

/// Offline view of the metadata hashtable, including mid-split geometry.
#[derive(Debug, Clone, Default)]
pub struct HashtableReport {
    pub header_off: u64,
    /// The stored geometry as decoded, plausible or not (`old_buckets` is
    /// non-zero while an incremental split is in flight).
    pub geo: Geo,
    /// Entries found by walking every chain.
    pub reachable: u64,
    pub entries: Vec<EntryReport>,
    pub stripes: Vec<StripeStat>,
    /// Histogram of chain lengths: index = length, value = bucket count.
    pub chain_histogram: Vec<u64>,
    pub errors: Vec<String>,
}

impl HashtableReport {
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// Find a reachable entry by exact key.
    pub fn lookup(&self, key: &[u8]) -> Option<&EntryReport> {
        self.entries.iter().find(|e| e.key == key)
    }
}

/// Walk the hashtable rooted at `header_off`: the header under the rules
/// `PersistentHashtable::open` applies, then every live chain — the
/// unmigrated tail of the old table (mid-split) and the whole new one.
pub fn walk_hashtable(dev: &PmemDevice, header_off: u64) -> HashtableReport {
    let mut out = HashtableReport {
        header_off,
        ..Default::default()
    };
    let checked = Geo::read(dev, header_off).and_then(|g| {
        out.geo = g;
        g.check(dev)
    });
    if let Err(e) = checked {
        out.errors.push(message(e));
        return out;
    }
    out.stripes = vec![StripeStat::default(); STRIPES];
    for (head_slot, bucket, head) in out.geo.heads(dev) {
        let (chain, end) = walk_from(dev, head_slot, head, Fetch::Header, |e| {
            out.entries.push(EntryReport {
                key: e.key(dev),
                value_off: e.value_off(),
                value_len: e.vlen as u64,
                header_len: e.hlen as u64,
            });
            true
        });
        out.errors.extend(end.err().map(message));
        let stripe = &mut out.stripes[(bucket % STRIPES as u64) as usize];
        stripe.buckets += 1;
        stripe.entries += chain;
        stripe.longest_chain = stripe.longest_chain.max(chain);
        out.reachable += chain;
        if out.chain_histogram.len() <= chain as usize {
            out.chain_histogram.resize(chain as usize + 1, 0);
        }
        out.chain_histogram[chain as usize] += 1;
    }
    out
}

/// One committed record in a [`crate::PersistentLog`] ring.
#[derive(Debug, Clone)]
pub struct LogRecord {
    pub ring_offset: u64,
    pub body: Vec<u8>,
    pub crc_ok: bool,
}

/// Offline view of a persistent log (the write-behind WAL).
#[derive(Debug, Clone, Default)]
pub struct LogReport {
    pub header_off: u64,
    pub ring_off: u64,
    pub capacity: u64,
    pub head: u64,
    pub tail: u64,
    pub records: Vec<LogRecord>,
    pub errors: Vec<String>,
}

impl LogReport {
    pub fn ok(&self) -> bool {
        self.errors.is_empty() && self.records.iter().all(|r| r.crc_ok)
    }
}

/// Walk a log ring head→tail without mounting — the walk
/// [`crate::PersistentLog::replay`] runs, with a CRC mismatch flagged on the
/// record instead of ending it.
pub fn walk_log(dev: &PmemDevice, header_off: u64, ring_off: u64) -> LogReport {
    let mut out = LogReport {
        header_off,
        ring_off,
        ..Default::default()
    };
    let walked = (|| {
        out.capacity = log_capacity(dev, header_off, ring_off)?;
        (out.head, out.tail) = log_pointers(dev, header_off, out.capacity)?;
        let visit = |rec: RingRecord| {
            let (body, crc_ok) = rec.body(dev, ring_off);
            out.records.push(LogRecord {
                ring_offset: rec.at,
                body,
                crc_ok,
            });
            true
        };
        walk_ring(dev, ring_off, out.capacity, (out.head, out.tail), visit).1
    })();
    out.errors.extend(walked.err().map(message));
    out
}

/// Scan the pool's flight-recorder ring (oldest surviving event first).
pub fn read_flight(dev: &PmemDevice) -> Vec<FlightEvent> {
    flight::scan_ring(dev, flight_start())
}

/// The root object's payload interpreted as the conventional 8-byte
/// hashtable-header pointer (`registry::shared_pool`'s layout). Returns
/// `None` when there is no plausible root or it is not 8 bytes.
pub fn root_hashtable_header(dev: &PmemDevice, sb: &Superblock) -> Option<u64> {
    if sb.root_off == 0 || sb.root_size != 8 || !dev.in_heap(sb.root_off, 8) {
        return None;
    }
    Some(dev.u64_at(sb.root_off)).filter(|&header| header != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashtable::PersistentHashtable;
    use crate::pool::tests::crashed_at;
    use crate::pool::PmemPool;
    use pmem_sim::{Clock, Machine, PersistenceMode};
    use std::sync::Arc;

    fn fixture() -> (Arc<PmemPool>, Clock) {
        let dev = PmemDevice::new(Machine::chameleon(), 4 << 20, PersistenceMode::Fast);
        let clock = Clock::new();
        (PmemPool::create(&clock, dev, "doctor").unwrap(), clock)
    }

    #[test]
    fn superblock_decodes_without_mounting() {
        let (pool, _clock) = fixture();
        let sb = Superblock::read(pool.device().as_ref());
        assert!(sb.fault.is_none(), "{sb:?}");
        assert_eq!(sb.layout_name, "doctor");
        assert_eq!(sb.generation, 1);
    }

    #[test]
    fn garbage_image_is_not_a_pool() {
        let dev = PmemDevice::new(Machine::chameleon(), 1 << 20, PersistenceMode::Fast);
        dev.write_untimed(0, &[0xddu8; 4096]);
        let sb = Superblock::read(dev.as_ref());
        assert_ne!(sb.magic, POOL_MAGIC);
        assert!(sb.fault.is_some());
    }

    #[test]
    fn heap_walk_matches_mounted_stats() {
        let (pool, clock) = fixture();
        let a = pool.alloc(&clock, 1000).unwrap();
        let _b = pool.alloc(&clock, 2000).unwrap();
        pool.free(&clock, a).unwrap();
        let h = walk_heap(pool.device());
        assert!(h.ok(), "{:?}", h.errors);
        assert_eq!(h.live_allocations, 1);
        assert_eq!(h.allocated_bytes, pool.allocated_bytes());
        assert_eq!(h.free_bytes, pool.free_bytes());
    }

    #[test]
    fn hashtable_walk_finds_every_entry() {
        let (pool, clock) = fixture();
        let ht = PersistentHashtable::create(&clock, &pool, 8).unwrap();
        for i in 0..40u32 {
            ht.put(&clock, format!("k{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        let rep = walk_hashtable(pool.device(), ht.header_offset());
        assert!(rep.ok(), "{:?}", rep.errors);
        assert_eq!(rep.reachable, 40);
        assert_eq!(rep.entries.len(), 40);
        assert_eq!(rep.stripes.len(), STRIPES);
        let histo_buckets: u64 = rep.chain_histogram.iter().sum();
        let walked: u64 = rep.stripes.iter().map(|s| s.buckets).sum();
        assert_eq!(histo_buckets, walked);
        let e = rep.lookup(b"k7").expect("k7 reachable");
        assert_eq!(e.value_len, 4);
        let mut v = [0u8; 4];
        pool.device().read_untimed(e.value_off as usize, &mut v);
        assert_eq!(u32::from_le_bytes(v), 7);
    }

    #[test]
    fn lane_summary_sees_a_stuck_lane() {
        let (pool, _) = fixture();
        assert!(read_lanes(pool.device()).all_idle());
        // Freeze a transaction mid-flight: a power failure as its commit
        // begins.
        let scenario = |pool: &Arc<PmemPool>, clock: &Clock, passed: &dyn Fn() -> usize| {
            let p = pool.alloc(clock, 64).unwrap();
            let mut body_end = 0;
            pool.tx(clock, |tx| {
                tx.set(p, &[7u8; 64])?;
                body_end = passed();
                Ok(())
            })
            .unwrap();
            body_end
        };
        let (body_end, _) = crashed_at(4 << 20, usize::MAX, scenario);
        let (_, image) = crashed_at(4 << 20, body_end, scenario);
        let lanes = read_lanes(&image.unwrap());
        assert_eq!(lanes.active, 1);
        assert_eq!(lanes.busy.len(), 1);
        assert_eq!(lanes.busy[0].state_name(), "ACTIVE");
    }

    #[test]
    fn log_walk_reads_committed_records() {
        let (pool, clock) = fixture();
        let log = crate::PersistentLog::create(&clock, &pool, 4096).unwrap();
        log.append(&clock, b"alpha").unwrap();
        log.append(&clock, b"beta").unwrap();
        let (h, r) = log.location();
        let rep = walk_log(pool.device(), h, r);
        assert!(rep.ok(), "{:?}", rep.errors);
        assert_eq!(rep.records.len(), 2);
        assert_eq!(rep.records[0].body, b"alpha");
        assert_eq!(rep.records[1].body, b"beta");
        assert!(rep.records.iter().all(|rec| rec.crc_ok));
    }

    #[test]
    fn flight_scan_shows_recorded_events() {
        let (pool, clock) = fixture();
        pool.flight()
            .record(&clock, pmem_sim::EventCode::Mount, 1, 0);
        let events = read_flight(pool.device());
        assert!(!events.is_empty());
        assert_eq!(
            events.last().unwrap().event(),
            Some(pmem_sim::EventCode::Mount)
        );
    }
}
