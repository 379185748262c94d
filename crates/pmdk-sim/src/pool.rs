//! The pmemobj-style pool: superblock, root object, typed persistent access.

use crate::alloc::Heap;
use crate::error::{PmdkError, Result};
use crate::layout::*;
use crate::tx::{LaneTable, Tx};
use pmem_sim::flight::EventCode;
use pmem_sim::profile::{self, FlushStrategy};
use pmem_sim::sync::Mutex;
use pmem_sim::{Clock, FlightRecorder, PmemDevice};
use std::collections::HashMap;
use std::sync::Arc;

/// Test-only failure injection: named sites armed with a countdown.
#[derive(Debug, Default)]
pub struct FailPoints {
    armed: Mutex<HashMap<&'static str, u32>>,
}

impl FailPoints {
    /// Arm `site` to fail on its `nth` (1-based) hit.
    pub fn arm(&self, site: &'static str, nth: u32) {
        assert!(nth >= 1);
        self.armed.lock().insert(site, nth);
    }

    /// Check a site; returns `Err(Injected)` when the countdown expires.
    pub fn check(&self, site: &'static str) -> Result<()> {
        let mut map = self.armed.lock();
        if let Some(n) = map.get_mut(site) {
            *n -= 1;
            if *n == 0 {
                map.remove(site);
                return Err(PmdkError::Injected(site));
            }
        }
        Ok(())
    }

    /// Sites still armed (i.e. that never fired) — hygiene checks in tests.
    pub fn armed_sites(&self) -> Vec<&'static str> {
        let mut sites: Vec<_> = self.armed.lock().keys().copied().collect();
        sites.sort_unstable();
        sites
    }

    /// Disarm everything, returning the sites that never fired.
    pub fn clear(&self) -> Vec<&'static str> {
        let mut sites: Vec<_> = self.armed.lock().drain().map(|(s, _)| s).collect();
        sites.sort_unstable();
        sites
    }

    /// Scopeguard for crash tests: clears leftover armed sites when dropped
    /// — including on panic, so one test's early assertion failure cannot
    /// leave fail points poisoning the next scenario on a shared pool.
    pub fn guard(&self) -> FailPointGuard<'_> {
        FailPointGuard { points: self }
    }
}

/// RAII fail-point hygiene for tests (see [`FailPoints::guard`]).
///
/// Dropping the guard disarms everything still armed; call
/// [`FailPointGuard::assert_unfired`] at the end of the happy path to also
/// *assert* that every armed site actually fired — an unfired site means
/// the scenario never reached the code path it meant to crash.
#[derive(Debug)]
pub struct FailPointGuard<'a> {
    points: &'a FailPoints,
}

impl FailPointGuard<'_> {
    /// Assert no armed-but-unfired sites remain.
    pub fn assert_unfired(&self, context: &str) {
        let armed = self.points.armed_sites();
        assert!(
            armed.is_empty(),
            "{context}: fail points armed but never fired: {armed:?}"
        );
    }
}

impl Drop for FailPointGuard<'_> {
    fn drop(&mut self) {
        // No asserts in drop (we may already be unwinding): just defuse.
        self.points.clear();
    }
}

impl Drop for PmemPool {
    fn drop(&mut self) {
        // Fail-point hygiene: a reopened pool always starts with a fresh
        // table, so an armed-but-unfired site would otherwise vanish
        // silently — a test that thinks it injected a crash when it never
        // did. Disarming explicitly here keeps the invariant "armed sites
        // die with the handle" visible, and `FailPoints::armed_sites` lets
        // tests assert nothing was left armed before dropping.
        self.fail_points.clear();
    }
}

/// A pmemobj-style persistent object pool.
#[derive(Debug)]
pub struct PmemPool {
    device: Arc<PmemDevice>,
    heap: Mutex<Heap>,
    pub(crate) lanes: LaneTable,
    layout: String,
    generation: u64,
    /// Superblock-recorded device-profile id (see `pmem_sim::profile`).
    device_profile_id: u32,
    /// Flush strategy the mount autotuned (or read back) for that profile.
    flush_strategy: FlushStrategy,
    pub fail_points: FailPoints,
    /// Always-on crash forensics ring (see `pmem_sim::flight`): lives in the
    /// pool's reserved flight region, records structural transitions with
    /// virtual-time stamps, and costs nothing in modelled time.
    flight: FlightRecorder,
}

impl PmemPool {
    /// Format `device` as a fresh pool with the given layout name.
    pub fn create(clock: &Clock, device: Arc<PmemDevice>, layout: &str) -> Result<Arc<Self>> {
        let size = device.size() as u64;
        if size < min_pool_size() {
            return Err(PmdkError::BadPool(format!(
                "device too small: {size} < {}",
                min_pool_size()
            )));
        }
        if layout.len() > sb::LAYOUT_NAME_MAX as usize {
            return Err(PmdkError::BadPool("layout name too long".into()));
        }

        // Superblock.
        let mut sblk = vec![0u8; SUPERBLOCK_SIZE as usize];
        sblk[sb::MAGIC as usize..][..8].copy_from_slice(&POOL_MAGIC.to_le_bytes());
        sblk[sb::VERSION as usize..][..8].copy_from_slice(&1u64.to_le_bytes());
        sblk[sb::POOL_SIZE as usize..][..8].copy_from_slice(&size.to_le_bytes());
        sblk[sb::HEAP_START as usize..][..8].copy_from_slice(&heap_start().to_le_bytes());
        sblk[sb::ROOT_OFF as usize..][..8].copy_from_slice(&0u64.to_le_bytes());
        sblk[sb::ROOT_SIZE as usize..][..8].copy_from_slice(&0u64.to_le_bytes());
        sblk[sb::LAYOUT_LEN as usize..][..8].copy_from_slice(&(layout.len() as u64).to_le_bytes());
        sblk[sb::LAYOUT_NAME as usize..][..layout.len()].copy_from_slice(layout.as_bytes());
        sblk[sb::GENERATION as usize..][..8].copy_from_slice(&1u64.to_le_bytes());
        // Device profile + autotuned flush strategy ride in the same
        // superblock page — baking them into the create write costs nothing.
        let device_profile_id = profile::profile_id(device.machine().profile_name());
        let flush_strategy = profile::autotune_flush(device.machine().config());
        sblk[sb::DEVICE_PROFILE as usize..][..4].copy_from_slice(&device_profile_id.to_le_bytes());
        sblk[sb::FLUSH_STRATEGY as usize..][..4]
            .copy_from_slice(&flush_strategy.code().to_le_bytes());
        device.write_meta(clock, 0, &sblk);
        device.persist(clock, 0, SUPERBLOCK_SIZE as usize);

        // Lane table.
        LaneTable::format(clock, &device);

        // Heap.
        Heap::format(clock, &device, heap_start(), size);
        let heap = Heap::rebuild(Arc::clone(&device), heap_start(), size)?;

        // Flight recorder (untimed: formatting charges nothing).
        let flight = FlightRecorder::format(Arc::clone(&device), flight_start(), FLIGHT_SIZE);

        Ok(Arc::new(PmemPool {
            lanes: LaneTable::new(),
            heap: Mutex::new(heap),
            device,
            layout: layout.to_string(),
            generation: 1,
            device_profile_id,
            flush_strategy,
            fail_points: FailPoints::default(),
            flight,
        }))
    }

    /// Open an existing pool: validate the superblock, recover interrupted
    /// transactions, rebuild the volatile allocator state.
    pub fn open(clock: &Clock, device: Arc<PmemDevice>, layout: &str) -> Result<Arc<Self>> {
        let size = device.size() as u64;
        let sblk = Superblock::read(&Charged {
            device: &device,
            clock,
        });
        if let Some(fault) = sblk.fault {
            return Err(PmdkError::BadPool(fault));
        }
        if sblk.layout_name != layout {
            return Err(PmdkError::LayoutMismatch {
                expected: layout.into(),
                found: sblk.layout_name,
            });
        }

        let generation = sblk.generation.wrapping_add(1);
        // Cached autotuner verdict: reuse it when the mounting machine's
        // profile matches what the pool was last tuned for; otherwise (or
        // for legacy/untuned pools) re-probe and persist the new verdict.
        let stored_profile = sblk.device_profile_id;
        let current_profile = profile::profile_id(device.machine().profile_name());
        let (device_profile_id, flush_strategy, retune) =
            match FlushStrategy::from_code(sblk.flush_strategy_code) {
                Some(s) if stored_profile == current_profile => (stored_profile, s, false),
                _ => (
                    current_profile,
                    profile::autotune_flush(device.machine().config()),
                    true,
                ),
            };
        let flight =
            FlightRecorder::attach_or_format(Arc::clone(&device), flight_start(), FLIGHT_SIZE);
        let pool = Arc::new(PmemPool {
            lanes: LaneTable::new(),
            heap: Mutex::new(Heap::recover(Arc::clone(&device), heap_start(), size)?),
            device,
            layout: layout.to_string(),
            generation,
            device_profile_id,
            flush_strategy,
            fail_points: FailPoints::default(),
            flight,
        });
        pool.write_u64(clock, sb::GENERATION, generation);
        if retune {
            pool.write_u32(clock, sb::DEVICE_PROFILE, device_profile_id);
            pool.write_u32(clock, sb::FLUSH_STRATEGY, flush_strategy.code());
        }
        // Roll back / complete interrupted transactions, then re-sync the
        // allocator (recovery may have freed intent allocations).
        let recovered = pool.lanes.recover(clock, &pool)?;
        if recovered > 0 {
            pool.flight
                .record(clock, EventCode::Recovery, 0, recovered, 0);
            let heap = Heap::rebuild(
                Arc::clone(&pool.device),
                heap_start(),
                pool.device.size() as u64,
            )?;
            *pool.heap.lock() = heap;
        }
        Ok(pool)
    }

    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    pub fn layout(&self) -> &str {
        &self.layout
    }

    /// Pool generation: 1 at create, +1 per open. Stamped on flight `Mount`
    /// events.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Device-profile id recorded in the superblock at create/last retune.
    pub fn device_profile_id(&self) -> u32 {
        self.device_profile_id
    }

    /// Flush strategy the autotuner selected for this pool's profile (or a
    /// cached verdict read back from the superblock at open).
    pub fn flush_strategy(&self) -> FlushStrategy {
        self.flush_strategy
    }

    /// The pool's flight recorder (always attached; recording default-on).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Check a fail-point site *and* record a firing in the flight recorder
    /// — the recorded event marks the simulated power-cut moment, so a
    /// crashed image names the site that killed it. All crash-injectable
    /// code paths route through this instead of `fail_points.check`.
    pub fn fail_check(&self, clock: &Clock, site: &'static str) -> Result<()> {
        match self.fail_points.check(site) {
            Ok(()) => Ok(()),
            Err(e) => {
                self.flight.record_failpoint(clock, site);
                Err(e)
            }
        }
    }

    // ---- allocation ----

    /// Allocate `size` persistent bytes (non-transactional; the allocation
    /// is durable once this returns): a group of one.
    pub fn alloc(&self, clock: &Clock, size: u64) -> Result<u64> {
        Ok(self.alloc_many(clock, &[size])?[0])
    }

    /// Allocate a group of payloads in one free-list pass (see
    /// [`Heap::alloc_many`]). Offsets come back in request order.
    pub fn alloc_many(&self, clock: &Clock, sizes: &[u64]) -> Result<Vec<u64>> {
        self.alloc_planned(clock, sizes, |_| {})
    }

    /// [`PmemPool::alloc_many`], with `planned` shown the offsets once they
    /// are chosen and before any block header says so. The heap lock is held
    /// from the plan to the last commit header: `Heap::free` reads its
    /// neighbours' headers from media and would coalesce into a block that
    /// is planned and not yet written.
    pub(crate) fn alloc_planned(
        &self,
        clock: &Clock,
        sizes: &[u64],
        planned: impl FnOnce(&[u64]),
    ) -> Result<Vec<u64>> {
        let machine = self.device.machine();
        let _span = machine.span(clock, "pmdk", "pool.alloc").arg(
            "bytes",
            sizes.iter().fold(0, |sum, &s| sum.saturating_add(s)),
        );
        // Heap metadata writes charge the clock under the heap lock; keep
        // the deterministic scheduler from parking us while we hold it.
        let _atomic = pmem_sim::atomic_section();
        let out = self.heap.lock().alloc_many(clock, sizes, planned);
        out
    }

    /// Free a persistent allocation.
    pub fn free(&self, clock: &Clock, off: u64) -> Result<()> {
        let _span = self.device.machine().span(clock, "pmdk", "pool.free");
        let _atomic = pmem_sim::atomic_section();
        let out = self.heap.lock().free(clock, off);
        out
    }

    /// Usable size of a live allocation.
    pub fn usable_size(&self, off: u64) -> Result<u64> {
        self.heap.lock().usable_size(off)
    }

    pub(crate) fn in_free_block(&self, off: u64) -> bool {
        self.heap.lock().in_free_block(off)
    }

    pub fn allocated_bytes(&self) -> u64 {
        self.heap.lock().allocated_bytes()
    }

    pub fn free_bytes(&self) -> u64 {
        self.heap.lock().free_bytes()
    }

    /// Validate allocator invariants (test support).
    pub fn check_heap(&self) -> Result<()> {
        self.heap.lock().check_invariants()
    }

    // ---- root object ----

    /// Get (or create, on first call) the root object of at least `size`
    /// bytes. Returns its payload offset.
    pub fn root(&self, clock: &Clock, size: u64) -> Result<u64> {
        let cur = self.read_u64(clock, sb::ROOT_OFF);
        if cur != 0 {
            let cur_size = self.read_u64(clock, sb::ROOT_SIZE);
            if cur_size < size {
                return Err(PmdkError::BadPool(format!(
                    "root exists with size {cur_size} < requested {size}"
                )));
            }
            return Ok(cur);
        }
        let off = self.alloc(clock, size)?;
        self.device.zero_meta(clock, off as usize, size as usize);
        self.device.persist(clock, off as usize, size as usize);
        self.write_u64(clock, sb::ROOT_SIZE, size);
        self.write_u64(clock, sb::ROOT_OFF, off); // commit point
        Ok(off)
    }

    // ---- typed persistent access ----

    // Pool-internal structures have fixed real sizes, so they are timed
    // without the workload byte scaling (`*_meta` device paths).

    pub fn read_u64(&self, clock: &Clock, off: u64) -> u64 {
        let mut b = [0u8; 8];
        self.device.read_meta(clock, off as usize, &mut b);
        u64::from_le_bytes(b)
    }

    pub fn write_u64(&self, clock: &Clock, off: u64, v: u64) {
        self.write_bytes(clock, off, &v.to_le_bytes());
    }

    pub fn read_u32(&self, clock: &Clock, off: u64) -> u32 {
        let mut b = [0u8; 4];
        self.device.read_meta(clock, off as usize, &mut b);
        u32::from_le_bytes(b)
    }

    pub fn write_u32(&self, clock: &Clock, off: u64, v: u32) {
        self.write_bytes(clock, off, &v.to_le_bytes());
    }

    /// Bulk write + persist (metadata-timed).
    pub fn write_bytes(&self, clock: &Clock, off: u64, data: &[u8]) {
        self.device.write_meta(clock, off as usize, data);
        self.device.persist(clock, off as usize, data.len());
    }

    /// Bulk read (metadata-timed).
    pub fn read_bytes(&self, clock: &Clock, off: u64, dst: &mut [u8]) {
        self.device.read_meta(clock, off as usize, dst);
    }

    /// This pool as a timed [`Bytes`] source for the shared format readers.
    pub fn charged<'a>(&'a self, clock: &'a Clock) -> Charged<'a> {
        Charged {
            device: &self.device,
            clock,
        }
    }

    // ---- transactions ----

    /// Run `body` inside a persistent transaction. On `Ok`, all snapshotted
    /// ranges and allocations become durable atomically; on `Err` (or crash),
    /// they roll back.
    pub fn tx<T>(
        self: &Arc<Self>,
        clock: &Clock,
        body: impl FnOnce(&mut Tx<'_>) -> Result<T>,
    ) -> Result<T> {
        Tx::run(self, clock, body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{Machine, PersistenceMode};

    pub(crate) fn fresh_pool(bytes: usize) -> (Arc<PmemPool>, Clock) {
        let dev = PmemDevice::new(Machine::chameleon(), bytes, PersistenceMode::Tracked);
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "test-layout").unwrap();
        (pool, clock)
    }

    #[test]
    fn create_then_open_round_trips() {
        let (pool, clock) = fresh_pool(1 << 20);
        let dev = Arc::clone(pool.device());
        drop(pool);
        let pool = PmemPool::open(&clock, dev, "test-layout").unwrap();
        assert_eq!(pool.layout(), "test-layout");
    }

    #[test]
    fn open_rejects_wrong_layout() {
        let (pool, clock) = fresh_pool(1 << 20);
        let dev = Arc::clone(pool.device());
        drop(pool);
        let err = PmemPool::open(&clock, dev, "other").unwrap_err();
        assert!(matches!(err, PmdkError::LayoutMismatch { .. }));
    }

    #[test]
    fn open_rejects_unformatted_device() {
        let dev = PmemDevice::new(Machine::chameleon(), 1 << 20, PersistenceMode::Fast);
        let clock = Clock::new();
        assert!(PmemPool::open(&clock, dev, "x").is_err());
    }

    #[test]
    fn create_rejects_tiny_device() {
        let dev = PmemDevice::new(Machine::chameleon(), 4096, PersistenceMode::Fast);
        let clock = Clock::new();
        assert!(PmemPool::create(&clock, dev, "x").is_err());
    }

    #[test]
    fn root_is_created_once_and_stable() {
        let (pool, clock) = fresh_pool(1 << 21);
        let r1 = pool.root(&clock, 256).unwrap();
        let r2 = pool.root(&clock, 256).unwrap();
        assert_eq!(r1, r2);
        pool.write_bytes(&clock, r1, b"root data");
        // Reopen: root offset must persist.
        let dev = Arc::clone(pool.device());
        drop(pool);
        let pool = PmemPool::open(&clock, dev, "test-layout").unwrap();
        assert_eq!(pool.root(&clock, 256).unwrap(), r1);
        let mut buf = [0u8; 9];
        pool.read_bytes(&clock, r1, &mut buf);
        assert_eq!(&buf, b"root data");
    }

    #[test]
    fn root_rejects_growth() {
        let (pool, clock) = fresh_pool(1 << 21);
        pool.root(&clock, 64).unwrap();
        assert!(pool.root(&clock, 128).is_err());
    }

    #[test]
    fn allocations_survive_reopen() {
        let (pool, clock) = fresh_pool(1 << 21);
        let p = pool.alloc(&clock, 100).unwrap();
        pool.write_bytes(&clock, p, &[7u8; 100]);
        let dev = Arc::clone(pool.device());
        drop(pool);
        let pool = PmemPool::open(&clock, dev, "test-layout").unwrap();
        let mut buf = [0u8; 100];
        pool.read_bytes(&clock, p, &mut buf);
        assert_eq!(buf, [7u8; 100]);
        // The allocation is still registered.
        assert_eq!(pool.usable_size(p).unwrap(), crate::layout::align_up(100));
    }

    /// Every durable image along a run of `body` (one per flush and fence,
    /// unfenced lines lost), recovered on a device of its own.
    fn recovered_along(bytes: usize, body: impl FnOnce(&Arc<PmemPool>, &Clock)) -> usize {
        let (pool, clock) = fresh_pool(bytes);
        let images = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&images);
        pool.device()
            .at_crash_points(move |dev| sink.lock().push(dev.crash_image(&[])));
        body(&pool, &clock);
        let images = std::mem::take(&mut *images.lock());
        for (i, image) in images.iter().enumerate() {
            let dev = PmemDevice::new(Machine::chameleon(), bytes, PersistenceMode::Fast);
            dev.write_untimed(0, image);
            let pool = PmemPool::open(&clock, dev, "test-layout")
                .unwrap_or_else(|e| panic!("crash point {i}: {e}"));
            pool.check_heap()
                .unwrap_or_else(|e| panic!("crash point {i}: {e}"));
        }
        images.len()
    }

    /// Found by `tests/crash_states.rs` (seed 0x21, scenario `tx`, crash
    /// point 34): splitting a free block that has a physical successor
    /// persists the successor's `prev_size` before the header whose size it
    /// mirrors, and `open` refused the image in between as a broken chain.
    /// Recovery mends the back link instead.
    #[test]
    fn a_crash_inside_a_block_split_or_merge_still_mounts() {
        let points = recovered_along(1 << 21, |pool, clock| {
            let hole = pool.alloc(clock, 1024).unwrap();
            let next = pool.alloc(clock, 128).unwrap();
            pool.free(clock, hole).unwrap(); // a hole with a successor
            let part = pool.alloc(clock, 200).unwrap(); // splits it
            pool.alloc_many(clock, &[64, 64, 64]).unwrap(); // carves the rest
            pool.free(clock, next).unwrap(); // merges backwards
            pool.free(clock, part).unwrap();
        });
        assert!(points > 20, "{points}");
    }

    /// Found by `tests/crash_states.rs` (seed 0x21, scenario `tx`, crash
    /// point 88): a deferred free that merged into a free predecessor and
    /// crashed before marking its own absorbed header FREE was replayed by
    /// lane recovery, which still read ALLOC there and freed a block inside
    /// a free block ("coalesce target not in free map"). The absorbed header
    /// now flips first.
    #[test]
    fn a_deferred_free_that_crashed_mid_merge_replays_cleanly() {
        recovered_along(1 << 21, |pool, clock| {
            let hole = pool.alloc(clock, 1024).unwrap();
            let victim = pool.alloc(clock, 128).unwrap();
            let _pin = pool.alloc(clock, 64).unwrap();
            pool.free(clock, hole).unwrap(); // the victim's predecessor is free
            pool.tx(clock, |tx| tx.free(victim)).unwrap();
        });
    }

    /// A group's interior headers say ALLOC before its commit header does.
    /// A crash in between leaves durable intents naming headers *inside* a
    /// free block; a rollback that took their word would free them.
    #[test]
    fn a_group_without_its_commit_header_is_not_rolled_back_block_by_block() {
        recovered_along(1 << 21, |pool, clock| {
            pool.tx(clock, |tx| tx.alloc_many(&[64, 200, 64]).map(drop))
                .unwrap();
        });
    }

    #[test]
    fn fail_points_fire_on_nth_hit() {
        let fp = FailPoints::default();
        fp.arm("site", 2);
        assert!(fp.check("site").is_ok());
        assert!(matches!(fp.check("site"), Err(PmdkError::Injected("site"))));
        assert!(fp.check("site").is_ok()); // disarmed after firing
    }
}
