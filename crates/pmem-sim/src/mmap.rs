//! DAX memory-mapping emulation, including the MAP_SYNC cost model.
//!
//! Mapping a PMEM file with DAX gives the application load/store access with
//! no page cache; the kernel still charges a minor fault the first time each
//! page is touched. With `MAP_SYNC`, the filesystem additionally guarantees
//! that a writably-faulted block stays at its file offset across a crash —
//! which forces a synchronous metadata flush in the fault path. The paper's
//! PMCPY-B configuration enables MAP_SYNC and loses most of the zero-copy
//! benefit; PMCPY-A disables it.
//!
//! Empirically the paper observed the penalty on *both* the write and the
//! read workloads (Fig. 6/7), so this model charges the MAP_SYNC
//! synchronization on every first-touch fault of a synced mapping (the
//! metadata writes for reads come from the library's own metadata updates
//! landing in the same mapping).

use crate::device::PmemDevice;
use crate::sync::NoYieldMutex;
use crate::time::Clock;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Concurrently-settable page bitmap that reports *newly set* pages.
#[derive(Debug)]
struct PageBitmap {
    words: Box<[AtomicU64]>,
    pages: usize,
}

impl PageBitmap {
    fn new(pages: usize) -> Self {
        PageBitmap {
            words: (0..pages.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
            pages,
        }
    }

    /// Set all pages in `[first, last]`; returns how many were newly set.
    fn set_range(&self, first: usize, last: usize) -> u64 {
        debug_assert!(last < self.pages);
        let mut new = 0;
        for page in first..=last {
            let mask = 1u64 << (page % 64);
            let prev = self.words[page / 64].fetch_or(mask, Ordering::Relaxed);
            if prev & mask == 0 {
                new += 1;
            }
        }
        new
    }
}

/// A DAX mapping of a contiguous device extent.
#[derive(Debug)]
pub struct DaxMapping {
    device: Arc<PmemDevice>,
    base: usize,
    len: usize,
    map_sync: bool,
    touched: PageBitmap,
    /// Guards against concurrent remap/unmap bookkeeping (not data). Not a
    /// scheduler interaction point: each rank maps its own `DaxMapping`, and
    /// the state is checked on every mapped access, i.e. right after almost
    /// every charge — as a point it makes the deferred yield as expensive
    /// as a yield per charge.
    state: NoYieldMutex<MapState>,
}

#[derive(Debug, PartialEq, Eq)]
enum MapState {
    Mapped,
    Unmapped,
}

impl DaxMapping {
    /// Establish the mapping. Charges one mmap syscall.
    pub fn new(
        clock: &Clock,
        device: Arc<PmemDevice>,
        base: usize,
        len: usize,
        map_sync: bool,
    ) -> Arc<Self> {
        assert!(
            base + len <= device.size(),
            "mapping [{base}, {}) exceeds device size {}",
            base + len,
            device.size()
        );
        device.machine().charge_syscall(clock);
        let page = device.machine().config().page_size as usize;
        Arc::new(DaxMapping {
            touched: PageBitmap::new(len.div_ceil(page)),
            device,
            base,
            len,
            map_sync,
            state: NoYieldMutex::new(MapState::Mapped),
        })
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn map_sync(&self) -> bool {
        self.map_sync
    }

    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    fn assert_mapped(&self) {
        assert!(
            *self.state.lock() == MapState::Mapped,
            "access to an unmapped DAX region"
        );
    }

    fn check_range(&self, off: usize, len: usize) {
        assert!(
            off.checked_add(len).is_some_and(|end| end <= self.len),
            "DAX access out of bounds: off={off} len={len} mapping={}",
            self.len
        );
    }

    /// Charge faults for first-touch pages in `[off, off+len)`.
    fn fault_range(&self, clock: &Clock, off: usize, len: usize) {
        if len == 0 {
            return;
        }
        let page = self.device.machine().config().page_size as usize;
        let first = off / page;
        let last = (off + len - 1) / page;
        let new_pages = self.touched.set_range(first, last);
        if new_pages > 0 {
            let scale = self.device.machine().config().byte_scale;
            self.device
                .machine()
                .charge_page_faults(clock, new_pages * scale, self.map_sync);
        }
    }

    /// Store through the mapping: fault accounting + PMEM write stream.
    pub fn store(&self, clock: &Clock, off: usize, src: &[u8]) {
        self.assert_mapped();
        self.check_range(off, src.len());
        self.fault_range(clock, off, src.len());
        self.device.write(clock, self.base + off, src);
    }

    /// Load through the mapping: fault accounting + PMEM read stream.
    pub fn load(&self, clock: &Clock, off: usize, dst: &mut [u8]) {
        self.assert_mapped();
        self.check_range(off, dst.len());
        self.fault_range(clock, off, dst.len());
        self.device.read(clock, self.base + off, dst);
    }

    /// Load through the mapping as a borrowed slice: identical fault
    /// accounting and read charges to [`DaxMapping::load`], but `f` sees the
    /// device bytes directly — no DRAM staging buffer. The caller must not
    /// write `[off, off+len)` concurrently for the duration of `f` (the
    /// [`crate::buffer::SharedBuffer`] disjointness contract).
    pub fn load_borrowed<R>(
        &self,
        clock: &Clock,
        off: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        self.assert_mapped();
        self.check_range(off, len);
        self.fault_range(clock, off, len);
        self.device.read_borrowed(clock, self.base + off, len, f)
    }

    /// Persist a range of the mapping (CLWB range + SFENCE).
    pub fn persist(&self, clock: &Clock, off: usize, len: usize) {
        self.assert_mapped();
        self.check_range(off, len);
        self.device.persist(clock, self.base + off, len);
    }

    /// Persist a range with an explicit flush strategy (see
    /// [`crate::profile::FlushStrategy`]); `Clwb` is identical to
    /// [`DaxMapping::persist`].
    pub fn persist_with(
        &self,
        clock: &Clock,
        off: usize,
        len: usize,
        strategy: crate::profile::FlushStrategy,
    ) {
        self.assert_mapped();
        self.check_range(off, len);
        self.device
            .persist_with(clock, self.base + off, len, strategy);
    }

    /// Tear down the mapping. Charges one munmap syscall. Subsequent
    /// accesses panic (the simulated SIGSEGV).
    pub fn unmap(&self, clock: &Clock) {
        {
            let mut st = self.state.lock();
            assert!(*st == MapState::Mapped, "double munmap");
            *st = MapState::Unmapped;
        }
        // Charge outside the state lock.
        self.device.machine().charge_syscall(clock);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::PersistenceMode;
    use crate::machine::Machine;
    use crate::time::SimTime;

    fn mapping(map_sync: bool) -> (Arc<DaxMapping>, Clock) {
        let machine = Machine::chameleon();
        let dev = PmemDevice::new(machine, 1 << 20, PersistenceMode::Fast);
        let clock = Clock::new();
        let m = DaxMapping::new(&clock, dev, 0, 1 << 20, map_sync);
        (m, clock)
    }

    #[test]
    fn store_load_round_trip() {
        let (m, c) = mapping(false);
        m.store(&c, 4096, b"persist me");
        let mut out = [0u8; 10];
        m.load(&c, 4096, &mut out);
        assert_eq!(&out, b"persist me");
    }

    #[test]
    fn first_touch_faults_once_per_page() {
        let (m, c) = mapping(false);
        m.store(&c, 0, &[1; 8192]); // 2 pages
        let s1 = m.device().machine().stats.snapshot();
        assert_eq!(s1.page_faults, 2);
        m.store(&c, 100, &[2; 100]); // same page, no new fault
        let s2 = m.device().machine().stats.snapshot();
        assert_eq!(s2.page_faults, 2);
    }

    #[test]
    fn map_sync_charges_extra_per_page() {
        let (plain, c1) = mapping(false);
        let (synced, c2) = mapping(true);
        let t1 = c1.now();
        let t2 = c2.now();
        plain.store(&c1, 0, &[1; 4096 * 4]);
        synced.store(&c2, 0, &[1; 4096 * 4]);
        assert!(c2.now() - t2 > c1.now() - t1);
        assert_eq!(
            synced
                .device()
                .machine()
                .stats
                .snapshot()
                .map_sync_page_syncs,
            4
        );
    }

    #[test]
    fn mmap_and_unmap_charge_syscalls() {
        let (m, c) = mapping(false);
        let before = m.device().machine().stats.snapshot().syscalls;
        m.unmap(&c);
        assert_eq!(m.device().machine().stats.snapshot().syscalls, before + 1);
    }

    #[test]
    #[should_panic(expected = "unmapped")]
    fn access_after_unmap_is_a_segfault() {
        let (m, c) = mapping(false);
        m.unmap(&c);
        m.store(&c, 0, &[0; 8]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_store_panics() {
        let (m, c) = mapping(false);
        let len = m.len();
        m.store(&c, len - 4, &[0; 8]);
    }

    #[test]
    fn persist_advances_time() {
        let (m, c) = mapping(false);
        m.store(&c, 0, &[3; 1024]);
        let t = c.now();
        m.persist(&c, 0, 1024);
        assert!(c.now() > t);
        assert_eq!(m.device().machine().stats.snapshot().fences, 1);
    }

    #[test]
    fn byte_scale_multiplies_fault_counts() {
        use crate::machine::MachineConfig;
        let cfg = MachineConfig {
            byte_scale: 16,
            ..MachineConfig::chameleon_skylake()
        };
        let machine = Machine::new(cfg);
        let dev = PmemDevice::new(machine, 1 << 20, PersistenceMode::Fast);
        let c = Clock::new();
        let m = DaxMapping::new(&c, dev, 0, 1 << 20, false);
        m.store(&c, 0, &[1; 4096]); // 1 real page = 16 modelled pages
        assert_eq!(m.device().machine().stats.snapshot().page_faults, 16);
    }

    #[test]
    fn mapping_offset_is_applied_to_device() {
        let machine = Machine::chameleon();
        let dev = PmemDevice::new(machine, 8192, PersistenceMode::Fast);
        let c = Clock::new();
        let m = DaxMapping::new(&c, Arc::clone(&dev), 4096, 4096, false);
        m.store(&c, 0, b"xyz");
        assert_eq!(dev.read_vec_untimed(4096, 3), b"xyz");
    }

    #[test]
    fn load_borrowed_charges_like_staged_load() {
        let (staged, c1) = mapping(false);
        let (borrowed, c2) = mapping(false);
        staged.store(&c1, 0, &[7; 4096]);
        borrowed.store(&c2, 0, &[7; 4096]);
        let mut out = [0u8; 4096];
        let t1 = c1.now();
        staged.load(&c1, 0, &mut out);
        let t2 = c2.now();
        let seen = borrowed.load_borrowed(&c2, 0, 4096, |s| s.to_vec());
        assert_eq!(seen, out);
        assert_eq!(c2.now() - t2, c1.now() - t1);
    }

    #[test]
    fn time_flows_even_without_contention() {
        let (m, c) = mapping(false);
        let t0 = c.now();
        m.store(&c, 0, &[0; 1 << 16]);
        // 64 KiB at 8 GB/s ≈ 8.2 us plus latency/faults.
        assert!(c.now() - t0 >= SimTime::from_micros(8));
    }
}
