//! The emulated PMEM device: real backing bytes + the timing model.
//!
//! A [`PmemDevice`] couples a [`SharedBuffer`] (the actual data, so
//! correctness is end-to-end testable) with the [`Machine`] cost model (so
//! performance is modelled with the paper's constants). Crash-consistency
//! tests enable [`PersistenceMode::Tracked`], which maintains a durable
//! shadow image at cacheline granularity.

use crate::buffer::SharedBuffer;
use crate::machine::Machine;
use crate::persistence::{InFlightLine, PersistenceTracker};
use crate::time::Clock;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Whether the device maintains a durable shadow image for crash simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistenceMode {
    /// No shadow: fastest, crashes cannot be simulated. Benchmarks use this.
    Fast,
    /// Shadow + per-line dirty/flushed/fenced tracking: `crash()` discards
    /// every store no fence has made durable.
    Tracked,
}

/// The internal write block of the modelled media: 256 bytes on Optane
/// ("Persistent Memory I/O Primitives"). A store that fills one is one
/// media operation where several partial ones would each pay the write
/// latency, so the serialization sink combines small puts into one window,
/// and the hashtable lets a record's metadata ride in its first window.
pub const WINDOW: usize = 256;

/// Called at a crash point; see [`PmemDevice::at_crash_points`].
type CrashPointHook = Box<dyn Fn(&PmemDevice) + Send + Sync>;

/// An emulated byte-addressable persistent-memory device.
pub struct PmemDevice {
    machine: Arc<Machine>,
    buf: SharedBuffer,
    tracker: Option<PersistenceTracker>,
    crash_points: OnceLock<CrashPointHook>,
}

impl std::fmt::Debug for PmemDevice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PmemDevice")
            .field("size", &self.size())
            .field("tracked", &self.tracker.is_some())
            .finish()
    }
}

impl PmemDevice {
    pub fn new(machine: Arc<Machine>, size: usize, mode: PersistenceMode) -> Arc<Self> {
        Arc::new(PmemDevice {
            buf: SharedBuffer::new(size),
            tracker: match mode {
                PersistenceMode::Fast => None,
                PersistenceMode::Tracked => Some(PersistenceTracker::new(size)),
            },
            crash_points: OnceLock::new(),
            machine,
        })
    }

    pub fn size(&self) -> usize {
        self.buf.len()
    }

    pub fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    // ---- untimed data plane (used by layers that model costs themselves) ----

    /// Store bytes without charging virtual time.
    pub fn write_untimed(&self, off: usize, src: &[u8]) {
        if let Some(t) = &self.tracker {
            t.record_write(&self.buf, off, src.len());
        }
        self.buf.write(off, src);
    }

    /// Load bytes without charging virtual time.
    pub fn read_untimed(&self, off: usize, dst: &mut [u8]) {
        self.buf.read(off, dst);
    }

    /// Zero a range without charging virtual time.
    pub fn zero_untimed(&self, off: usize, len: usize) {
        if let Some(t) = &self.tracker {
            t.record_write(&self.buf, off, len);
        }
        self.buf.zero(off, len);
    }

    /// Copy out a range as a `Vec` without charging virtual time.
    pub fn read_vec_untimed(&self, off: usize, len: usize) -> Vec<u8> {
        self.buf.read_vec(off, len)
    }

    /// Make `[off, off+len)` durable without charging virtual time or
    /// touching the machine stats. Used by layers whose persistence must be
    /// invisible to the cost model (the flight recorder): in `Tracked` mode
    /// the covered lines become durable as after a charged
    /// [`PmemDevice::persist`] — but no other flushed line is retired and
    /// it is no crash point — in `Fast` mode it is a no-op.
    pub fn persist_untimed(&self, off: usize, len: usize) {
        if let Some(t) = &self.tracker {
            t.persist_range(&self.buf, off, len);
        }
    }

    // ---- timed data plane ----

    /// Store bytes, charging PMEM write latency + contended bandwidth.
    pub fn write(&self, clock: &Clock, off: usize, src: &[u8]) {
        self.write_headed(clock, off, &[src], 0);
    }

    /// One store of `parts`, back to back from `off`, whose first `head`
    /// bytes are metadata that share the record's media operation: charged
    /// unscaled, as [`PmemDevice::write_meta`] charges them, the rest as
    /// [`PmemDevice::write`] does.
    pub(crate) fn write_headed(&self, clock: &Clock, off: usize, parts: &[&[u8]], head: usize) {
        let end = parts.iter().fold(off, |at, part| {
            self.write_untimed(at, part);
            at + part.len()
        });
        let record = (end - off - head) as u64;
        self.machine
            .charge_pmem_write_headed(clock, head as u64, record);
    }

    /// Load bytes, charging PMEM read latency + contended bandwidth.
    pub fn read(&self, clock: &Clock, off: usize, dst: &mut [u8]) {
        self.read_parts(clock, off, &mut [dst]);
    }

    /// One load of the bytes from `off` into `dsts`, back to back: charged
    /// as [`PmemDevice::read`] of their total length.
    pub(crate) fn read_parts(&self, clock: &Clock, off: usize, dsts: &mut [&mut [u8]]) {
        let end = dsts.iter_mut().fold(off, |at, dst| {
            self.read_untimed(at, dst);
            at + dst.len()
        });
        self.machine.charge_pmem_read(clock, (end - off) as u64);
    }

    /// Load bytes as a borrowed slice — same charges as [`PmemDevice::read`]
    /// but without a DRAM destination buffer. The disjointness contract of
    /// [`SharedBuffer::with_slice`] applies for the duration of `f`.
    pub(crate) fn read_borrowed<R>(
        &self,
        clock: &Clock,
        off: usize,
        len: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> R {
        // Charge first so `f` observes the same clock it would after a
        // staged `read` of the same range (emit callbacks charge on top).
        self.machine.charge_pmem_read(clock, len as u64);
        self.buf.with_slice(off, len, f)
    }

    /// Metadata store: real data movement, timed *without* byte scaling
    /// (see [`crate::machine::Machine::charge_pmem_write_meta`]).
    pub fn write_meta(&self, clock: &Clock, off: usize, src: &[u8]) {
        self.write_untimed(off, src);
        self.machine.charge_pmem_write_meta(clock, src.len() as u64);
    }

    /// Metadata load, timed without byte scaling.
    pub fn read_meta(&self, clock: &Clock, off: usize, dst: &mut [u8]) {
        self.read_untimed(off, dst);
        self.machine.charge_pmem_read_meta(clock, dst.len() as u64);
    }

    /// Zero a metadata range (format-time structures), timed without byte
    /// scaling.
    pub fn zero_meta(&self, clock: &Clock, off: usize, len: usize) {
        self.zero_untimed(off, len);
        self.machine.charge_pmem_write_meta(clock, len as u64);
    }

    // ---- persistence plane ----

    /// Flush the cachelines covering `[off, off+len)` toward the persistence
    /// domain (CLWB-equivalent). Charges flush CPU cost.
    pub fn flush(&self, clock: &Clock, off: usize, len: usize) {
        self.machine.charge_flush(clock, len as u64);
        self.track_flush(off, len);
    }

    /// The tracked half of a flush, whichever primitive was charged for it.
    fn track_flush(&self, off: usize, len: usize) {
        if let Some(t) = &self.tracker {
            self.crash_point();
            t.flush(off, len);
        }
    }

    /// Drain the write-pending queue (SFENCE-equivalent): every line flushed
    /// before it is durable after it.
    pub fn drain(&self, clock: &Clock) {
        self.machine.charge_fence(clock);
        if let Some(t) = &self.tracker {
            self.crash_point();
            t.fence(&self.buf);
        }
    }

    /// flush + drain: the canonical persist sequence.
    pub fn persist(&self, clock: &Clock, off: usize, len: usize) {
        self.flush(clock, off, len);
        self.drain(clock);
    }

    /// Flush a record with the device's own persist primitive
    /// ([`crate::MachineConfig::flush_strategy`]): a CLWB range or one
    /// ntstore-style streaming writeback, durable at the next
    /// [`PmemDevice::drain`]. The range starts with the `head` structures
    /// the record was stored with (see [`Machine::charge_writeback`]). On a
    /// CLWB device a headless one is charge for charge
    /// [`PmemDevice::flush`].
    pub(crate) fn flush_record(&self, clock: &Clock, off: usize, len: usize, head: &[usize]) {
        let strategy = self.machine.config().flush_strategy;
        self.machine
            .charge_writeback(clock, strategy, len as u64, head);
        self.track_flush(off, len);
    }

    /// Number of unpersisted cachelines (Tracked mode only).
    #[cfg(test)]
    fn dirty_lines(&self) -> usize {
        self.tracker.as_ref().map_or(0, |t| t.dirty_lines())
    }

    // ---- crash states (Tracked mode only; `Fast` panics — a benchmark
    // configuration cannot crash) ----

    #[allow(clippy::expect_used, reason = "a `Fast` device cannot crash")]
    fn tracked(&self) -> &PersistenceTracker {
        self.tracker
            .as_ref()
            .expect("crash states require PersistenceMode::Tracked")
    }

    /// Simulate a power failure: every store no fence has made durable is
    /// lost — the all-lost point of `PmemDevice::crash_keeping`.
    pub fn crash(&self) {
        self.crash_keeping(&[]);
    }

    /// The cachelines a power failure right now may or may not find on
    /// media (see `PersistenceTracker::in_flight`).
    pub fn in_flight(&self) -> Vec<InFlightLine> {
        self.tracked().in_flight(&self.buf)
    }

    /// The bytes media holds if exactly `reached` of [`Self::in_flight`]
    /// made it; the device itself is untouched.
    pub fn crash_image(&self, reached: &[InFlightLine]) -> Vec<u8> {
        self.tracked().image(reached)
    }

    /// Simulate the power failure in which exactly `reached` of
    /// [`Self::in_flight`] made it to media.
    pub(crate) fn crash_keeping(&self, reached: &[InFlightLine]) {
        self.tracked().crash_restore(&self.buf, reached);
    }

    /// Count this device's crash points from now on and keep the
    /// [`Self::crash_image`] at point `k` (0-based, every in-flight line
    /// lost). After the run the returned call says how many points it passed
    /// and hands over the image, if the run got as far as `k`. It takes the
    /// device's one [`Self::at_crash_points`] hook.
    pub fn crash_at(&self, k: usize) -> impl Fn() -> (usize, Option<Vec<u8>>) {
        let seen = Arc::new((AtomicUsize::new(0), OnceLock::new()));
        let hook = Arc::clone(&seen);
        self.at_crash_points(move |dev| {
            if hook.0.fetch_add(1, Ordering::Relaxed) == k {
                let _ = hook.1.set(dev.crash_image(&[]));
            }
        });
        move || (seen.0.load(Ordering::Relaxed), seen.1.get().cloned())
    }

    /// Call `hook` at every crash point from now on: just before each flush
    /// and each fence takes effect, where the in-flight set is largest. The
    /// hook typically recovers [`Self::crash_image`]s on devices of its own
    /// (or keeps one: [`Self::crash_at`]). One hook a device, set once.
    pub fn at_crash_points(&self, hook: impl Fn(&PmemDevice) + Send + Sync + 'static) {
        self.tracked();
        assert!(
            self.crash_points.set(Box::new(hook)).is_ok(),
            "a device takes one crash-point hook"
        );
    }

    fn crash_point(&self) {
        if let Some(hook) = self.crash_points.get() {
            hook(self);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MachineConfig;
    use crate::time::SimTime;

    fn tracked_device(size: usize) -> Arc<PmemDevice> {
        PmemDevice::new(Machine::chameleon(), size, PersistenceMode::Tracked)
    }

    #[test]
    fn timed_write_moves_clock_and_data() {
        let dev = tracked_device(4096);
        let c = Clock::new();
        dev.write(&c, 100, &[42; 50]);
        assert!(c.now() > SimTime::ZERO);
        assert_eq!(dev.read_vec_untimed(100, 50), vec![42; 50]);
    }

    #[test]
    fn read_returns_written_data_and_charges_time() {
        let dev = tracked_device(4096);
        let c = Clock::new();
        dev.write_untimed(0, b"hello");
        let mut out = [0u8; 5];
        let before = c.now();
        dev.read(&c, 0, &mut out);
        assert_eq!(&out, b"hello");
        assert!(c.now() > before);
    }

    #[test]
    fn crash_discards_unflushed_writes() {
        let dev = tracked_device(4096);
        let c = Clock::new();
        dev.write(&c, 0, &[1; 64]);
        dev.persist(&c, 0, 64);
        dev.write(&c, 64, &[2; 64]);
        // no persist for the second line
        dev.crash();
        assert_eq!(dev.read_vec_untimed(0, 64), vec![1; 64]);
        assert_eq!(dev.read_vec_untimed(64, 64), vec![0; 64]);
    }

    #[test]
    fn a_flush_without_its_fence_is_lost_by_the_pessimistic_crash() {
        let dev = tracked_device(4096);
        let c = Clock::new();
        dev.write(&c, 0, &[1; 64]);
        dev.flush(&c, 0, 64);
        assert_eq!(dev.in_flight().len(), 1, "flushed, unfenced");
        assert_eq!(dev.crash_image(&dev.in_flight())[..64], [1; 64]);
        dev.crash();
        assert_eq!(dev.read_vec_untimed(0, 64), vec![0; 64]);
        dev.write(&c, 0, &[1; 64]);
        dev.flush(&c, 0, 64);
        dev.drain(&c);
        assert!(dev.in_flight().is_empty());
        dev.crash();
        assert_eq!(dev.read_vec_untimed(0, 64), vec![1; 64]);
    }

    #[test]
    fn crash_points_are_every_flush_and_every_fence() {
        let dev = tracked_device(4096);
        let c = Clock::new();
        let seen = Arc::new(crate::sync::Mutex::new(Vec::new()));
        let log = Arc::clone(&seen);
        dev.at_crash_points(move |d| log.lock().push(d.in_flight().len()));
        dev.write(&c, 0, &[1; 128]);
        dev.persist(&c, 0, 64); // flush sees 2 dirty, fence 1 flushed + 1 dirty
        dev.persist_untimed(64, 64); // no crash point
        dev.drain(&c);
        assert_eq!(*seen.lock(), vec![2, 2, 0]);
    }

    #[test]
    fn crash_at_counts_the_points_and_keeps_the_image_at_one_of_them() {
        let run = |k| {
            let dev = tracked_device(4096);
            let crashed = dev.crash_at(k);
            let c = Clock::new();
            for (line, fill) in [(0, 1u8), (64, 2)] {
                dev.write(&c, line, &[fill; 64]);
                dev.persist(&c, line, 64); // a flush point, then a fence point
            }
            crashed()
        };
        let firsts = |image: Vec<u8>| (image[0], image[64]);
        assert_eq!(run(0).0, 4);
        // At the first fence the first line is flushed and not yet durable.
        assert_eq!(run(1).1.map(firsts), Some((0, 0)));
        assert_eq!(run(2).1.map(firsts), Some((1, 0)));
        assert_eq!(run(4), (4, None), "past the last point");
    }

    #[test]
    fn dirty_line_accounting() {
        let dev = tracked_device(4096);
        let c = Clock::new();
        dev.write(&c, 0, &[5; 130]);
        assert_eq!(dev.dirty_lines(), 3);
        dev.persist(&c, 0, 130);
        assert_eq!(dev.dirty_lines(), 0);
    }

    #[test]
    #[should_panic(expected = "Tracked")]
    fn crash_in_fast_mode_panics() {
        let dev = PmemDevice::new(Machine::chameleon(), 64, PersistenceMode::Fast);
        dev.crash();
    }

    #[test]
    fn zero_is_tracked_like_a_write() {
        let dev = tracked_device(256);
        let c = Clock::new();
        dev.write(&c, 0, &[9; 256]);
        dev.persist(&c, 0, 256);
        dev.zero_meta(&c, 0, 128);
        dev.crash(); // zeroing wasn't flushed -> old data returns
        assert_eq!(dev.read_vec_untimed(0, 128), vec![9; 128]);
    }

    #[test]
    fn bandwidth_is_shared_across_device_users() {
        // Two clocks writing 1 GB each through the same device: the later
        // completion must reflect queueing on the 8 GB/s write server.
        let machine = Machine::new(MachineConfig::chameleon_skylake());
        let dev = PmemDevice::new(machine, 1024, PersistenceMode::Fast);
        let (c1, c2) = (Clock::new(), Clock::new());
        // Timed charge with synthetic byte counts (data plane untouched).
        dev.machine().charge_pmem_write(&c1, 1_000_000_000);
        dev.machine().charge_pmem_write(&c2, 1_000_000_000);
        assert!(c2.now().as_secs_f64() > 0.24); // ~2 GB / 8 GB/s
    }
}
