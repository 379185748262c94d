//! The pmemobj-style pool: superblock, root object, typed persistent access.
//!
//! The heap sits behind one lock, held from an allocation's plan through its
//! fills to its commit. A mount restores its busy lanes' undo logs, walks
//! the heap once, then frees what those lanes allocated.

use crate::alloc::{write_unfenced, Heap, Store};
use crate::error::{PmdkError, Result};
use crate::layout::*;
use crate::tx::{retire_lane, LaneTable, Tx};
use pmem_sim::flight::EventCode;
use pmem_sim::profile;
use pmem_sim::sync::Mutex;
use pmem_sim::{Clock, FlightRecorder, PmemDevice};
use std::sync::Arc;

/// A pmemobj-style persistent object pool.
#[derive(Debug)]
pub struct PmemPool {
    device: Arc<PmemDevice>,
    heap: Mutex<Heap>,
    pub(crate) lanes: LaneTable,
    generation: u64,
    /// Always-on crash forensics ring (see `pmem_sim::flight`): lives in the
    /// pool's reserved flight region, records structural transitions with
    /// virtual-time stamps, and costs nothing in modelled time.
    flight: FlightRecorder,
}

impl PmemPool {
    /// Format `device` as a fresh pool with the given layout name.
    pub fn create(clock: &Clock, device: Arc<PmemDevice>, layout: &str) -> Result<Arc<Self>> {
        let size = device.size() as u64;
        check_size(size)?;
        if layout.len() > sb::LAYOUT_NAME_MAX as usize {
            return Err(PmdkError::BadPool("layout name too long".into()));
        }

        // Lane table.
        LaneTable::format(clock, &device);

        // Heap.
        Heap::format(clock, &device, heap_start(), size);
        let heap = Heap::rebuild(Arc::clone(&device), heap_start(), size)?;

        // Flight recorder (untimed: formatting charges nothing).
        let flight = FlightRecorder::format(Arc::clone(&device), flight_start(), FLIGHT_SIZE);

        // Superblock, last: its first cacheline (magic, sizes and a layout
        // name of up to 8 bytes, "pmemcpy" among them) is the format's
        // commit point. A crash before it leaves no magic, a device the next
        // mount formats afresh; after it, a whole pool (DESIGN §13.4).
        let mut sblk = vec![0u8; SUPERBLOCK_SIZE as usize];
        sblk[sb::MAGIC as usize..][..8].copy_from_slice(&POOL_MAGIC.to_le_bytes());
        sblk[sb::VERSION as usize..][..8].copy_from_slice(&LAYOUT_VERSION.to_le_bytes());
        sblk[sb::POOL_SIZE as usize..][..8].copy_from_slice(&size.to_le_bytes());
        sblk[sb::HEAP_START as usize..][..8].copy_from_slice(&heap_start().to_le_bytes());
        sblk[sb::ROOT_OFF as usize..][..8].copy_from_slice(&0u64.to_le_bytes());
        sblk[sb::ROOT_SIZE as usize..][..8].copy_from_slice(&0u64.to_le_bytes());
        sblk[sb::LAYOUT_LEN as usize..][..8].copy_from_slice(&(layout.len() as u64).to_le_bytes());
        sblk[sb::LAYOUT_NAME as usize..][..layout.len()].copy_from_slice(layout.as_bytes());
        sblk[sb::GENERATION as usize..][..8].copy_from_slice(&1u64.to_le_bytes());
        // The device profile rides in the same superblock page: baking it
        // into the create write costs nothing.
        let device_profile_id = profile::profile_id(device.machine().profile_name());
        sblk[sb::DEVICE_PROFILE as usize..][..4].copy_from_slice(&device_profile_id.to_le_bytes());
        device.write_meta(clock, 0, &sblk);
        device.persist(clock, 0, SUPERBLOCK_SIZE as usize);

        Ok(Arc::new(PmemPool {
            lanes: LaneTable::new(),
            heap: Mutex::new(heap),
            device,
            generation: 1,
            flight,
        }))
    }

    /// Open an existing pool: validate the superblock, roll interrupted
    /// transactions back around the heap walk that rebuilds the free map.
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
        let device_profile_id = profile::profile_id(device.machine().profile_name());
        // Undo records restore block headers: they land before the walk.
        let busy = LaneTable::restore(clock, &device)?;
        let heap = Heap::rebuild(Arc::clone(&device), heap_start(), size)?;
        let flight =
            FlightRecorder::attach_or_format(Arc::clone(&device), flight_start(), FLIGHT_SIZE);
        let pool = Arc::new(PmemPool {
            lanes: LaneTable::new(),
            heap: Mutex::new(heap),
            device,
            generation,
            flight,
        });
        // Their blocks are freed through the walked heap.
        for (base, intents) in &busy {
            retire_lane(clock, &pool, *base, intents);
        }
        if !busy.is_empty() {
            pool.flight
                .record(clock, EventCode::Recovery, busy.len() as u64, 0);
        }
        pool.write_u64(clock, sb::GENERATION, generation);
        // A pool moved to other modelled hardware records where it is now.
        if sblk.device_profile_id != device_profile_id {
            pool.write_u32(clock, sb::DEVICE_PROFILE, device_profile_id);
        }
        Ok(pool)
    }

    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    /// Pool generation: 1 at create, +1 per open. Stamped on flight `Mount`
    /// events.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The pool's flight recorder (always attached; recording default-on).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    // ---- allocation ----

    /// Allocate `size` persistent bytes (non-transactional; the allocation
    /// is durable once this returns): a group of one.
    pub fn alloc(&self, clock: &Clock, size: u64) -> Result<u64> {
        Ok(self.alloc_many(clock, &[size])?[0])
    }

    /// Allocate a group of payloads in one free-list pass, each block's
    /// header stored alone. Offsets come back in request order.
    pub fn alloc_many(&self, clock: &Clock, sizes: &[u64]) -> Result<Vec<u64>> {
        let fence = |_: &[u64], merged| {
            if merged {
                self.device.drain(clock);
            }
        };
        self.alloc_planned(clock, sizes, fence, &mut *self.headers(clock))
    }

    /// The store of a group whose blocks are filled later: headers alone.
    pub fn headers<'a>(&'a self, clock: &'a Clock) -> Box<Store<'a>> {
        Box::new(move |i, at, head| {
            write_unfenced(clock, &self.device, at[i] - BLOCK_HEADER_SIZE, head);
            Ok(())
        })
    }

    /// Allocate `sizes` under one hold of the heap lock: [`Heap::alloc_many`],
    /// whose offsets `planned` sees first and whose blocks `store` fills.
    pub(crate) fn alloc_planned(
        &self,
        clock: &Clock,
        sizes: &[u64],
        planned: impl FnOnce(&[u64], bool),
        store: &mut Store<'_>,
    ) -> Result<Vec<u64>> {
        let machine = self.device.machine();
        let _span = machine.span(clock, "pmdk", "pool.alloc").arg(
            "bytes",
            sizes.iter().fold(0, |sum, &s| sum.saturating_add(s)),
        );
        // Heap metadata writes charge the clock under the heap lock; keep
        // the deterministic scheduler from parking us while we hold it.
        let _atomic = pmem_sim::atomic_section();
        self.heap.lock().alloc_many(clock, sizes, planned, store)
    }

    /// Free a persistent allocation (durable once this returns).
    pub fn free(&self, clock: &Clock, off: u64) -> Result<()> {
        let _span = self.device.machine().span(clock, "pmdk", "pool.free");
        let _atomic = pmem_sim::atomic_section();
        self.heap.lock().free(clock, off)
    }

    /// Hand `offs`, whose FREE state words are durable and whose lane is
    /// idle, to the free map ([`Heap::release`]).
    pub(crate) fn release(&self, clock: &Clock, offs: &[u64]) {
        if !offs.is_empty() {
            let _span = self.device.machine().span(clock, "pmdk", "pool.free");
            let _atomic = pmem_sim::atomic_section();
            self.heap.lock().release(offs);
        }
    }

    /// Whether `off` is a live allocation's payload ([`Heap::is_live`]).
    pub(crate) fn is_live(&self, off: u64) -> bool {
        self.heap.lock().is_live(off)
    }

    /// Usable size of a live allocation.
    pub fn usable_size(&self, off: u64) -> Result<u64> {
        self.heap.lock().usable_size(off)
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

    pub(crate) fn write_u32(&self, clock: &Clock, off: u64, v: u32) {
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
    pub(crate) fn charged<'a>(&'a self, clock: &'a Clock) -> Charged<'a> {
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

/// Whether a pool fits a device of `size` bytes: a non-trivial heap, and
/// every offset within the 48 bits a lane-log record names.
fn check_size(size: u64) -> Result<()> {
    let (min, max) = (min_pool_size(), MAX_POOL_SIZE);
    match (min..=max).contains(&size) {
        true => Ok(()),
        false => bad(format!("device of {size} bytes, not {min}..={max}")),
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pmem_sim::{Machine, PersistenceMode};

    pub(crate) fn fresh_pool(bytes: usize) -> (Arc<PmemPool>, Clock) {
        let dev = PmemDevice::new(Machine::chameleon(), bytes, PersistenceMode::Tracked);
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "test-layout").unwrap();
        (pool, clock)
    }

    /// `scenario` on a fresh tracked pool of `bytes` (layout "test-layout")
    /// with a power failure at crash point `k`, counted from the pool's
    /// creation: what the scenario returned, and the durable image at `k` on
    /// a tracked device of its own (`None` when the run ended first). The
    /// scenario's third argument is how many crash points it has passed.
    pub(crate) fn crashed_at<T>(
        bytes: usize,
        k: usize,
        scenario: impl FnOnce(&Arc<PmemPool>, &Clock, &dyn Fn() -> usize) -> T,
    ) -> (T, Option<Arc<PmemDevice>>) {
        let dev = PmemDevice::new(Machine::chameleon(), bytes, PersistenceMode::Tracked);
        let crashed = dev.crash_at(k);
        let clock = Clock::new();
        let pool = PmemPool::create(&clock, dev, "test-layout").unwrap();
        let out = scenario(&pool, &clock, &|| crashed().0);
        let image = crashed().1.map(|image| {
            let dev = PmemDevice::new(Machine::chameleon(), bytes, PersistenceMode::Tracked);
            dev.write_untimed(0, &image);
            dev.persist_untimed(0, bytes);
            dev
        });
        (out, image)
    }

    /// The last crash point before `end` whose image holds an ACTIVE lane:
    /// a crash there finds the transaction that ends at `end` logged in full
    /// and not committed. The point after it is that transaction's commit
    /// point.
    pub(crate) fn last_uncommitted<T>(
        bytes: usize,
        end: usize,
        scenario: impl Fn(&Arc<PmemPool>, &Clock, &dyn Fn() -> usize) -> T,
    ) -> usize {
        (0..end)
            .rev()
            .find(|&k| {
                let image = crashed_at(bytes, k, &scenario).1.unwrap();
                crate::doctor::read_lanes(&image).active > 0
            })
            .expect("a transaction ends at the mark")
    }

    #[test]
    fn create_then_open_round_trips() {
        let (pool, clock) = fresh_pool(1 << 20);
        let dev = Arc::clone(pool.device());
        drop(pool);
        let pool = PmemPool::open(&clock, dev, "test-layout").unwrap();
        assert_eq!(pool.generation(), 2, "one create, one open");
    }

    /// The superblock records the profile of the machine a pool was last
    /// opened on. The four bytes after it, where older pools cached a
    /// flush-strategy verdict, are neither read nor written.
    #[test]
    fn open_records_the_mounting_profile_and_nothing_else() {
        let (pool, clock) = fresh_pool(1 << 20);
        let image = pool.device().read_vec_untimed(0, 1 << 20);
        drop(pool);
        let cxl = pmem_sim::profile::by_name("cxl").unwrap();
        let moved = PmemDevice::new(Machine::new(cxl), 1 << 20, PersistenceMode::Fast);
        moved.write_untimed(0, &image);
        let stale = sb::DEVICE_PROFILE as usize + 4;
        moved.write_untimed(stale, &[0xee; 4]);
        PmemPool::open(&clock, Arc::clone(&moved), "test-layout").unwrap();
        assert_eq!(
            Superblock::read(moved.as_ref()).device_profile_name(),
            "cxl"
        );
        assert_eq!(moved.read_vec_untimed(stale, 4), [0xee; 4]);
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
    /// point 34) while a split wrote its successor's back link in another
    /// cacheline than the header whose size it mirrored. Headers hold no
    /// back link now: a split's one write outside its blocks is its tail's
    /// header, and a free merges in the free map alone. Every crash point of
    /// splits, carves and frees beside free blocks mounts clean.
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
    /// point 88) while a free merged on media: a deferred free that crashed
    /// mid-merge was replayed by recovery as a free inside a free block. A
    /// transaction's free is one logged state word now, and the merge is the
    /// free map's: at every crash point of a free beside a free block the
    /// pool mounts with the block live (the lane rolls the word back) or
    /// free beside its neighbour, two FREE blocks the walk merges.
    #[test]
    fn a_free_beside_a_free_block_mounts_clean_at_every_crash_point() {
        recovered_along(1 << 21, |pool, clock| {
            let hole = pool.alloc(clock, 1024).unwrap();
            let victim = pool.alloc(clock, 128).unwrap();
            let _pin = pool.alloc(clock, 64).unwrap();
            pool.free(clock, hole).unwrap(); // the victim's predecessor is free
            pool.tx(clock, |tx| tx.free(victim)).unwrap();
        });
    }

    /// A hole and the block behind it freed: two adjacent FREE blocks on
    /// media, one region in the free map. A transaction carves 1 050 bytes
    /// from it, splitting off a tail, and fills them across the second
    /// block's header; the carve's drain makes the fill durable before its
    /// commit header. The region's merged header goes first, behind the
    /// count store's fence, so no crash point finds a fill where the walk
    /// reads a header. Every one mounts clean.
    #[test]
    fn a_carve_across_two_adjacent_free_blocks_mounts_clean_at_every_crash_point() {
        let points = recovered_along(1 << 21, |pool, clock| {
            let hole = pool.alloc(clock, 1024).unwrap();
            let next = pool.alloc(clock, 128).unwrap();
            let _pin = pool.alloc(clock, 64).unwrap();
            pool.free(clock, hole).unwrap();
            pool.free(clock, next).unwrap();
            let walked = crate::doctor::walk_heap(pool.device());
            assert_eq!(walked.free_blocks, 3, "the hole, `next` and the tail");
            let fill = |i: usize, at: &[u64], head: &[u8]| {
                let bytes = [head, &[7u8; 1050][..]].concat();
                write_unfenced(clock, pool.device(), at[i] - head.len() as u64, &bytes);
                Ok(())
            };
            let at = pool.tx(clock, |tx| tx.alloc_many(&[1050], fill));
            assert_eq!(at.unwrap(), [hole]);
            let walked = crate::doctor::walk_heap(pool.device());
            assert_eq!(walked.free_blocks, 2, "the carve's tail and the heap's");
        });
        assert!(points > 10, "{points}");
    }

    /// A transaction allocates 512, 256 and 4 096 bytes on a heap with a
    /// 1 KiB and a 4 KiB hole and nothing larger, so its second carve is
    /// cut from the first's tail. Returns the blocks, the allocated bytes
    /// before the transaction and the crash points passed by then.
    fn carve_from_a_tail(
        pool: &Arc<PmemPool>,
        clock: &Clock,
        passed: &dyn Fn() -> usize,
    ) -> (Vec<u64>, u64, usize) {
        let hole = pool.alloc(clock, 1024).unwrap();
        pool.alloc(clock, 64).unwrap();
        let big = pool.alloc(clock, 4096).unwrap();
        pool.alloc(clock, 64).unwrap();
        pool.alloc(clock, pool.free_bytes() & !63).unwrap();
        pool.free(clock, hole).unwrap();
        pool.free(clock, big).unwrap();
        let (baseline, start) = (pool.allocated_bytes(), passed());
        let sizes = [512, 256, 4096];
        let ptrs = pool.tx(clock, |tx| tx.alloc_many(&sizes, pool.headers(clock)));
        (ptrs.unwrap(), baseline, start)
    }

    /// A crash between the first two carves' commit headers: the first
    /// block says ALLOC on media, the second still lies in its tail's FREE
    /// header. The mount rolls the transaction back in its one heap walk's
    /// free map: neither block is live, and the heap checks clean.
    #[test]
    fn a_crash_between_a_carve_and_one_cut_from_its_tail_mounts_clean() {
        let ((ptrs, _, start), _) = crashed_at(1 << 21, usize::MAX, carve_from_a_tail);
        assert_eq!(
            ptrs[1],
            ptrs[0] + 512 + BLOCK_HEADER_SIZE,
            "cut from the tail"
        );
        let alloc = |dev: &PmemDevice, p: u64| {
            dev.u32_at(p - BLOCK_HEADER_SIZE + blk::STATE) == BLOCK_ALLOC
        };
        let (baseline, image) = (start..)
            .find_map(|k| {
                let ((_, baseline, _), image) = crashed_at(1 << 21, k, carve_from_a_tail);
                let image = image.expect("the run ends after both commits");
                (alloc(&image, ptrs[0]) && !alloc(&image, ptrs[1])).then_some((baseline, image))
            })
            .unwrap();
        assert_eq!(crate::doctor::read_lanes(&image).active, 1);
        let clock = Clock::new();
        let pool = PmemPool::open(&clock, image, "test-layout").unwrap();
        pool.check_heap().unwrap();
        assert!(!pool.is_live(ptrs[0]) && !pool.is_live(ptrs[1]));
        assert_eq!(pool.allocated_bytes(), baseline);
    }

    /// A group's interior headers say ALLOC before its commit header does.
    /// A crash in between leaves durable intents naming headers *inside* a
    /// free block; a rollback that took their word would free them.
    #[test]
    fn a_group_without_its_commit_header_is_not_rolled_back_block_by_block() {
        recovered_along(1 << 21, |pool, clock| {
            pool.tx(clock, |tx| {
                tx.alloc_many(&[64, 200, 64], pool.headers(clock)).map(drop)
            })
            .unwrap();
        });
    }

    /// A lane-log record names its target in 48 bits: create refuses a
    /// device with offsets past them, as it refuses one too small. Checked
    /// on sizes alone; no such device is made.
    #[test]
    fn a_device_whose_offsets_pass_48_bits_is_refused() {
        assert_eq!(check_size(min_pool_size()), Ok(()));
        assert_eq!(check_size(MAX_POOL_SIZE), Ok(()));
        for size in [min_pool_size() - 1, MAX_POOL_SIZE + 1, u64::MAX] {
            assert!(
                matches!(check_size(size), Err(PmdkError::BadPool(_))),
                "{size}"
            );
        }
    }
}
