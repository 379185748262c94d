//! Flight recorder: a crash-safe, bounded event ring persisted on the device.
//!
//! The recorder is the pool's "black box": a small ring of fixed-size slots
//! that records *structural transitions* (transaction begin/commit, WAL
//! append/drain/truncate/replay, split progress, count folds, fail-point
//! firings) so a crashed pool image explains itself — `pmemcpy-doctor` renders
//! the ring as a timeline without mounting or recovering anything.
//!
//! Two properties shape the design:
//!
//! * **Crash safety** — the same fenced-append discipline as
//!   `pmdk_sim::log::PersistentLog`: the 64-byte slot body is written and
//!   persisted *first*, then the header's `next_seq` word is advanced and
//!   persisted (the commit point). A torn slot is invisible because the
//!   header never points past it; a scan additionally cross-checks each
//!   slot's embedded sequence number, so even a corrupted ring degrades to
//!   "fewer events", never to garbage.
//! * **Bit-reproducibility** — recording must not perturb the simulation.
//!   Events *carry* virtual timestamps (the caller's [`Clock`]) but are
//!   written through the device's untimed plane with an uncharged persist
//!   ([`PmemDevice::persist_untimed`]): zero clock advances, zero machine
//!   stats, zero metrics. A deterministic run produces byte-identical
//!   reports with the recorder running — which is why it is unconditionally
//!   on, with no switch.
//!
//! The ring lives in a fixed reserved region of the pool (between the lane
//! table and the heap — see `pmdk_sim::layout`), so an offline reader finds
//! it from the superblock alone, with no reserved-key lookup and no
//! allocation: attaching the recorder is free and cannot shift any heap
//! offset or charge-accounted byte count.

use crate::device::PmemDevice;
use crate::sync::Mutex;
use crate::time::Clock;
use std::sync::Arc;

/// Ring header magic ("FLTREC01").
pub const FLIGHT_MAGIC: u64 = 0x464c_5452_4543_3031;
/// Bytes per event slot (one cacheline: a slot persist is one line flush).
pub const SLOT_SIZE: u64 = 64;
/// Ring header size (one slot's worth; fields below).
pub const FLIGHT_HEADER_SIZE: u64 = 64;

/// Header field offsets (relative to the ring base).
pub mod hdr {
    pub const MAGIC: u64 = 0;
    pub const SLOTS: u64 = 8;
    pub const NEXT_SEQ: u64 = 16;
}

/// The one table of flight events: variant, persisted `u16` code, timeline
/// name. A new event is one line here; codes are renamed freely, renumbered
/// never (old images must keep decoding).
macro_rules! event_codes {
    ($($(#[$doc:meta])* $variant:ident = $code:literal, $name:literal;)+) => {
        /// What happened.
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(u16)]
        pub enum EventCode {
            $($(#[$doc])* $variant = $code,)+
        }

        impl EventCode {
            pub fn from_u16(v: u16) -> Option<EventCode> {
                match v {
                    $($code => Some(EventCode::$variant),)+
                    _ => None,
                }
            }

            pub fn name(self) -> &'static str {
                match self {
                    $(EventCode::$variant => $name,)+
                }
            }
        }
    };
}

event_codes! {
    /// A handle mounted the pool (a = pool generation).
    Mount = 1, "mount";
    /// Clean unmount: checkpoint + quiesce completed. A pool whose last
    /// event is not `Unmount` did not shut down cleanly.
    Unmount = 2, "unmount";
    /// Pool open repaired interrupted transactions (a = lanes repaired).
    Recovery = 3, "recovery";
    /// Transaction began (a = lane).
    TxBegin = 4, "tx.begin";
    /// Transaction committed (a = lane).
    TxCommit = 5, "tx.commit";
    /// Transaction aborted and rolled back (a = lane).
    TxAbort = 6, "tx.abort";
    /// WAL record appended (a = record bytes, b = tail after).
    WalAppend = 7, "wal.append";
    /// WAL head advanced — the checkpoint watermark (a = records dropped,
    /// b = head after).
    WalTruncate = 8, "wal.truncate";
    /// WAL replay completed at mount (a = records replayed).
    WalReplay = 9, "wal.replay";
    /// Checkpoint drain started (a = records pending).
    CkptBegin = 10, "ckpt.begin";
    /// Checkpoint drain finished (a = records drained).
    CkptEnd = 11, "ckpt.end";
    /// Directory split began (a = old bucket count, b = new bucket count).
    SplitBegin = 12, "split.begin";
    /// One migration chunk committed (a = cursor after, b = entries moved).
    SplitChunk = 13, "split.chunk";
    /// Split finished: old table retired and freed (a = old bucket count).
    SplitRetire = 14, "split.retire";
    /// Per-stripe live counters folded into the header (a = folded count).
    CountFold = 15, "count.fold";
    /// An armed fail point fired — the simulated power-cut moment. `site`
    /// names the site; this is usually the last event in a crashed image.
    FailPoint = 16, "failpoint";
    /// Active device profile + chosen flush strategy at mount
    /// (a = profile id, b = strategy code — see `pmem_sim::profile`).
    ProfileMount = 17, "profile.mount";
}

/// Every fail-point site name, indexed by persisted id − 1 (0 = no site).
/// Append only — ids are persisted in pool images.
pub const FAIL_SITES: &[&str] = &[
    "tx::snapshot",
    "tx::alloc",
    "tx::alloc-after",
    "tx::commit-before",
    "tx::commit-during",
    "wal::append",
    "wal::truncate",
    "wal::ckpt-drain",
    "wal::replay",
    "ht::migrate",
    "ht::cursor-advance",
    "ht::count-fold",
];

/// Persisted id for a site name (0 when unknown — still recorded).
pub fn site_id(site: &str) -> u16 {
    FAIL_SITES
        .iter()
        .position(|s| *s == site)
        .map_or(0, |i| i as u16 + 1)
}

/// Site name for a persisted id.
pub fn site_name(id: u16) -> Option<&'static str> {
    (id > 0)
        .then(|| FAIL_SITES.get(id as usize - 1).copied())
        .flatten()
}

/// One decoded ring slot.
///
/// Slot layout (64 bytes, little-endian):
/// `[seq u64][time_ns u64][code u16][lane u16][site u16][pad u16][a u64][b u64][reserved 24]`
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    pub seq: u64,
    pub time_ns: u64,
    pub code: u16,
    pub lane: u16,
    pub site: u16,
    pub a: u64,
    pub b: u64,
}

impl FlightEvent {
    pub fn encode(&self) -> [u8; SLOT_SIZE as usize] {
        let mut s = [0u8; SLOT_SIZE as usize];
        s[0..8].copy_from_slice(&self.seq.to_le_bytes());
        s[8..16].copy_from_slice(&self.time_ns.to_le_bytes());
        s[16..18].copy_from_slice(&self.code.to_le_bytes());
        s[18..20].copy_from_slice(&self.lane.to_le_bytes());
        s[20..22].copy_from_slice(&self.site.to_le_bytes());
        s[24..32].copy_from_slice(&self.a.to_le_bytes());
        s[32..40].copy_from_slice(&self.b.to_le_bytes());
        s
    }

    pub fn decode(s: &[u8]) -> FlightEvent {
        let word = |o: usize| u64::from_le_bytes(s[o..o + 8].try_into().unwrap());
        let half = |o: usize| u16::from_le_bytes(s[o..o + 2].try_into().unwrap());
        FlightEvent {
            seq: word(0),
            time_ns: word(8),
            code: half(16),
            lane: half(18),
            site: half(20),
            a: word(24),
            b: word(32),
        }
    }

    /// Decoded event code, if the slot carries a known one.
    pub fn event(&self) -> Option<EventCode> {
        EventCode::from_u16(self.code)
    }

    /// Human label: the code name, or the raw number for unknown codes.
    pub fn label(&self) -> String {
        match self.event() {
            Some(c) => c.name().to_string(),
            None => format!("code#{}", self.code),
        }
    }
}

/// The installed, writing side of the ring.
#[derive(Debug)]
pub struct FlightRecorder {
    dev: Arc<PmemDevice>,
    base: u64,
    slots: u64,
    /// Serializes appends; holds the volatile mirror of `hdr::NEXT_SEQ`.
    next_seq: Mutex<u64>,
}

impl FlightRecorder {
    /// Format a fresh ring over `[base, base+region_len)` and return the
    /// recorder. All writes untimed + uncharged.
    pub fn format(dev: Arc<PmemDevice>, base: u64, region_len: u64) -> FlightRecorder {
        let slots = (region_len - FLIGHT_HEADER_SIZE) / SLOT_SIZE;
        assert!(slots >= 2, "flight ring region too small");
        let mut h = [0u8; FLIGHT_HEADER_SIZE as usize];
        h[0..8].copy_from_slice(&FLIGHT_MAGIC.to_le_bytes());
        h[8..16].copy_from_slice(&slots.to_le_bytes());
        dev.write_untimed(base as usize, &h);
        dev.persist_untimed(base as usize, h.len());
        FlightRecorder {
            dev,
            base,
            slots,
            next_seq: Mutex::new(0),
        }
    }

    /// Attach to an existing ring; falls back to formatting when the header
    /// does not validate (a pool image that predates the recorder).
    pub fn attach_or_format(dev: Arc<PmemDevice>, base: u64, region_len: u64) -> FlightRecorder {
        let mut h = [0u8; FLIGHT_HEADER_SIZE as usize];
        dev.read_untimed(base as usize, &mut h);
        let magic = u64::from_le_bytes(h[0..8].try_into().unwrap());
        let slots = u64::from_le_bytes(h[8..16].try_into().unwrap());
        let next = u64::from_le_bytes(h[16..24].try_into().unwrap());
        let max_slots = (region_len - FLIGHT_HEADER_SIZE) / SLOT_SIZE;
        if magic != FLIGHT_MAGIC || slots == 0 || slots > max_slots {
            return Self::format(dev, base, region_len);
        }
        FlightRecorder {
            dev,
            base,
            slots,
            next_seq: Mutex::new(next),
        }
    }

    /// Append one event. The slot body is persisted before the header's
    /// `next_seq` advance (the commit point), so a crash between the two
    /// simply hides the torn slot. Costs nothing in virtual time.
    pub fn record(&self, clock: &Clock, code: EventCode, site: u16, a: u64, b: u64) {
        let mut next = self.next_seq.lock();
        let seq = *next;
        let ev = FlightEvent {
            seq,
            time_ns: clock.now().as_nanos(),
            code: code as u16,
            lane: clock.lane().min(u16::MAX as u64) as u16,
            site,
            a,
            b,
        };
        let slot_off = self.base + FLIGHT_HEADER_SIZE + (seq % self.slots) * SLOT_SIZE;
        self.dev.write_untimed(slot_off as usize, &ev.encode());
        self.dev
            .persist_untimed(slot_off as usize, SLOT_SIZE as usize);
        let hdr_off = self.base + hdr::NEXT_SEQ;
        self.dev
            .write_untimed(hdr_off as usize, &(seq + 1).to_le_bytes());
        self.dev.persist_untimed(hdr_off as usize, 8);
        *next = seq + 1;
    }

    /// Shorthand for recording a fail-point firing by site name.
    pub fn record_failpoint(&self, clock: &Clock, site: &str) {
        self.record(clock, EventCode::FailPoint, site_id(site), 0, 0);
    }

    /// Read back the surviving events, oldest first (read-only; usable on a
    /// live recorder or via [`scan_ring`] on a raw image).
    pub fn scan(&self) -> Vec<FlightEvent> {
        scan_ring(&self.dev, self.base)
    }
}

/// Offline, read-only scan of a ring at `base`: returns the events still in
/// the window, oldest first. Slots whose embedded sequence number disagrees
/// with the header (torn or never-written) are skipped. Returns an empty
/// vector when the header does not validate.
pub fn scan_ring(dev: &PmemDevice, base: u64) -> Vec<FlightEvent> {
    let mut h = [0u8; FLIGHT_HEADER_SIZE as usize];
    dev.read_untimed(base as usize, &mut h);
    let magic = u64::from_le_bytes(h[0..8].try_into().unwrap());
    let slots = u64::from_le_bytes(h[8..16].try_into().unwrap());
    let next = u64::from_le_bytes(h[16..24].try_into().unwrap());
    if magic != FLIGHT_MAGIC || slots == 0 {
        return Vec::new();
    }
    let first = next.saturating_sub(slots);
    let mut out = Vec::with_capacity((next - first) as usize);
    let mut slot = [0u8; SLOT_SIZE as usize];
    for seq in first..next {
        let off = base + FLIGHT_HEADER_SIZE + (seq % slots) * SLOT_SIZE;
        dev.read_untimed(off as usize, &mut slot);
        let ev = FlightEvent::decode(&slot);
        if ev.seq == seq {
            out.push(ev);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PersistenceMode;
    use crate::machine::Machine;
    use crate::time::SimTime;

    const REGION: u64 = 64 * 64 + FLIGHT_HEADER_SIZE; // 64 slots

    fn ring(mode: PersistenceMode) -> (Arc<PmemDevice>, FlightRecorder) {
        let dev = PmemDevice::new(Machine::chameleon(), 1 << 16, mode);
        let fr = FlightRecorder::format(Arc::clone(&dev), 4096, REGION);
        (dev, fr)
    }

    #[test]
    fn events_round_trip_with_timestamps() {
        let (_dev, fr) = ring(PersistenceMode::Fast);
        let clock = Clock::with_lane(3);
        clock.advance(SimTime::from_nanos(42));
        fr.record(&clock, EventCode::SplitBegin, 0, 64, 128);
        fr.record_failpoint(&clock, "ht::migrate");
        let evs = fr.scan();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].event(), Some(EventCode::SplitBegin));
        assert_eq!((evs[0].a, evs[0].b), (64, 128));
        assert_eq!(evs[0].time_ns, 42);
        assert_eq!(evs[0].lane, 3);
        assert_eq!(evs[1].event(), Some(EventCode::FailPoint));
        assert_eq!(site_name(evs[1].site), Some("ht::migrate"));
    }

    #[test]
    fn recording_charges_nothing() {
        let (dev, fr) = ring(PersistenceMode::Fast);
        let clock = Clock::new();
        let stats_before = dev.machine().stats.snapshot();
        for _ in 0..100 {
            fr.record(&clock, EventCode::TxBegin, 0, 1, 0);
        }
        assert_eq!(clock.now(), SimTime::ZERO);
        assert_eq!(dev.machine().stats.snapshot(), stats_before);
    }

    #[test]
    fn ring_overwrites_oldest_but_keeps_window() {
        let (_dev, fr) = ring(PersistenceMode::Fast);
        let clock = Clock::new();
        for i in 0..100u64 {
            fr.record(&clock, EventCode::TxCommit, 0, i, 0);
        }
        let evs = fr.scan();
        assert_eq!(evs.len(), 64);
        assert_eq!(evs.first().unwrap().a, 36);
        assert_eq!(evs.last().unwrap().a, 99);
    }

    #[test]
    fn committed_events_survive_a_crash() {
        let (dev, fr) = ring(PersistenceMode::Tracked);
        let clock = Clock::new();
        fr.record(&clock, EventCode::Mount, 0, 1, 0);
        fr.record_failpoint(&clock, "wal::append");
        dev.crash();
        let evs = scan_ring(&dev, 4096);
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].event(), Some(EventCode::FailPoint));
        assert_eq!(site_name(evs[1].site), Some("wal::append"));
    }

    #[test]
    fn attach_resumes_the_sequence() {
        let (dev, fr) = ring(PersistenceMode::Fast);
        let clock = Clock::new();
        fr.record(&clock, EventCode::Mount, 0, 1, 0);
        drop(fr);
        let fr = FlightRecorder::attach_or_format(Arc::clone(&dev), 4096, REGION);
        fr.record(&clock, EventCode::Unmount, 0, 0, 0);
        let evs = fr.scan();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].seq, 1);
    }

    #[test]
    fn attach_reformats_garbage() {
        let dev = PmemDevice::new(Machine::chameleon(), 1 << 16, PersistenceMode::Fast);
        dev.write_untimed(4096, &[0xAB; 64]);
        let fr = FlightRecorder::attach_or_format(Arc::clone(&dev), 4096, REGION);
        assert!(fr.scan().is_empty());
        assert_eq!(fr.slots, 64);
    }

    #[test]
    fn event_codes_round_trip_through_the_table() {
        let codes: Vec<EventCode> = (0..=u16::MAX).filter_map(EventCode::from_u16).collect();
        assert_eq!(codes.len(), 17);
        for (v, c) in (1u16..).zip(&codes) {
            assert_eq!(*c as u16, v, "codes are dense from 1");
            assert_eq!(EventCode::from_u16(*c as u16), Some(*c));
        }
        let mut names: Vec<_> = codes.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), codes.len(), "event names must be unique");
    }

    #[test]
    fn site_registry_round_trips() {
        for (i, s) in FAIL_SITES.iter().enumerate() {
            assert_eq!(site_id(s), i as u16 + 1);
            assert_eq!(site_name(i as u16 + 1), Some(*s));
        }
        assert_eq!(site_id("no::such"), 0);
        assert_eq!(site_name(0), None);
        assert_eq!(site_name(200), None);
    }
}
