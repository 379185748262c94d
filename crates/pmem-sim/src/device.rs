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
use crate::profile::FlushStrategy;
use crate::time::Clock;
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
        self.write_untimed(off, src);
        self.machine.charge_pmem_write(clock, src.len() as u64);
    }

    /// Load bytes, charging PMEM read latency + contended bandwidth.
    pub fn read(&self, clock: &Clock, off: usize, dst: &mut [u8]) {
        self.read_untimed(off, dst);
        self.machine.charge_pmem_read(clock, dst.len() as u64);
    }

    /// Load bytes as a borrowed slice — same charges as [`PmemDevice::read`]
    /// but without a DRAM destination buffer. The disjointness contract of
    /// [`SharedBuffer::with_slice`] applies for the duration of `f`.
    pub fn read_borrowed<R>(
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

    /// Zero a range, charged as a write stream.
    pub fn zero(&self, clock: &Clock, off: usize, len: usize) {
        self.zero_untimed(off, len);
        self.machine.charge_pmem_write(clock, len as u64);
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

    /// Persist with an explicit [`FlushStrategy`]: CLWB-batched flush or an
    /// ntstore-style streaming writeback, each followed by the trailing
    /// fence. `Clwb` is charge-for-charge identical to
    /// [`PmemDevice::persist`].
    pub fn persist_with(&self, clock: &Clock, off: usize, len: usize, strategy: FlushStrategy) {
        match strategy {
            FlushStrategy::Clwb => self.flush(clock, off, len),
            FlushStrategy::Ntstore => {
                self.machine.charge_ntstore(clock, len as u64);
                self.track_flush(off, len);
            }
        }
        self.drain(clock);
    }

    /// Number of unpersisted cachelines (Tracked mode only).
    pub fn dirty_lines(&self) -> usize {
        self.tracker.as_ref().map_or(0, |t| t.dirty_lines())
    }

    // ---- crash states (Tracked mode only; `Fast` panics — a benchmark
    // configuration cannot crash) ----

    fn tracked(&self) -> &PersistenceTracker {
        self.tracker
            .as_ref()
            .expect("crash states require PersistenceMode::Tracked")
    }

    /// Simulate a power failure: every store no fence has made durable is
    /// lost — the all-lost point of [`PmemDevice::crash_keeping`].
    pub fn crash(&self) {
        self.crash_keeping(&[]);
    }

    /// The cachelines a power failure right now may or may not find on
    /// media (see [`PersistenceTracker::in_flight`]).
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
    pub fn crash_keeping(&self, reached: &[InFlightLine]) {
        self.tracked().crash_restore(&self.buf, reached);
    }

    /// Call `hook` at every crash point from now on: just before each flush
    /// and each fence takes effect, where the in-flight set is largest. The
    /// hook typically recovers [`Self::crash_image`]s on devices of its own.
    /// One hook a device, set once.
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
        dev.zero(&c, 0, 128);
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
