//! The simulated compute node: CPU, DRAM, PMEM and fabric cost model.
//!
//! The constants in [`MachineConfig::chameleon_skylake`] mirror the paper's
//! testbed (§4): a Chameleon Cloud Compute Skylake node (2× Xeon Gold 6126,
//! 24 cores / 48 threads, 192 GB DRAM) with PMEM emulated per the Strata
//! method — 300 ns read / 125 ns write latency, 30 GB/s read / 8 GB/s write
//! bandwidth. Shared bandwidth resources use a deterministic *fluid-share*
//! model: during a parallel phase each of the `active_ranks` ranks streams at
//! `min(per_core_bound, aggregate / active_ranks)`. This matches the
//! symmetric, all-ranks-active phases of the evaluation exactly, is fair by
//! construction, and keeps results independent of host thread scheduling
//! (which a greedy reservation calendar is not). Purely local work
//! (serialization compute, private-buffer copies) is charged to the rank's
//! own clock, scaled by the CPU oversubscription factor when more ranks run
//! than physical cores.

use crate::metrics::{self, MetricsRegistry, PhaseScope};
use crate::stats::{Stats, StatsSnapshot};
use crate::time::{Clock, SimTime};
use crate::trace::{TraceSink, TraceSpan};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Tunable hardware constants.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Name of the [`crate::profile::DeviceProfile`] these constants were
    /// built from. Bench reports and pool superblocks record it so a run is
    /// always attributable to one device model.
    pub profile_name: &'static str,
    /// Whether persists require explicit cache flushing. `false` models an
    /// eADR platform: the cache hierarchy sits inside the persistence
    /// domain, so flushes cost nothing while fences still order stores.
    pub needs_flush: bool,

    /// Physical cores; ranks beyond this are time-multiplexed.
    pub cores: usize,
    /// Hardware threads (informational; SMT gives no extra copy throughput).
    pub smt_threads: usize,

    /// PMEM media read latency per operation.
    pub pmem_read_latency: SimTime,
    /// PMEM media write latency per operation.
    pub pmem_write_latency: SimTime,
    /// Aggregate PMEM read bandwidth (shared across ranks).
    pub pmem_read_bw: u64,
    /// Aggregate PMEM write bandwidth (shared across ranks).
    pub pmem_write_bw: u64,
    /// Per-rank attended PMEM read throughput. The Strata-style emulation
    /// injects delays per access, which bounds what a single thread can
    /// stream regardless of aggregate headroom; this is what produces the
    /// paper's downward slope from 8 to 24 ranks before the aggregate
    /// bandwidth flattens the curves.
    pub pmem_read_core_bw: u64,
    /// Per-rank attended PMEM write throughput (see `pmem_read_core_bw`).
    pub pmem_write_core_bw: u64,

    /// Aggregate DRAM bus bandwidth (shared across ranks).
    pub dram_bw: u64,
    /// Single-core memcpy throughput (private cost of a copy).
    pub core_copy_bw: u64,
    /// DRAM access latency per bulk operation.
    pub dram_latency: SimTime,

    /// Cost of one kernel crossing (syscall entry/exit + dispatch).
    pub syscall: SimTime,
    /// Cost of a minor page fault on a DAX mapping.
    pub page_fault: SimTime,
    /// Extra cost per dirty page when the mapping was created with
    /// MAP_SYNC: the filesystem must sync block-allocation metadata before
    /// the fault returns, which is the latency penalty §3/§4.1 describe.
    pub map_sync_page: SimTime,
    /// Page size for fault/MAP_SYNC accounting.
    pub page_size: u64,
    /// Cacheline size for flush accounting.
    pub cacheline: u64,
    /// Fixed CPU cost of issuing a flush call over a range.
    pub flush_base: SimTime,
    /// Pipelined per-line cost of CLWB.
    pub flush_per_line: SimTime,
    /// Fixed cost of initiating a streaming (ntstore-style) persist.
    pub ntstore_base: SimTime,
    /// Per-line cost of a non-temporal streaming store writeback.
    pub ntstore_per_line: SimTime,
    /// Cost of a store fence.
    pub fence: SimTime,

    /// Per-message fabric latency (intra-node MPI over shared memory).
    pub net_latency: SimTime,
    /// Aggregate fabric bandwidth (shared across ranks).
    pub net_bw: u64,

    /// Burst-buffer / parallel-filesystem drain bandwidth.
    pub storage_bw: u64,
    /// Burst-buffer per-operation latency.
    pub storage_latency: SimTime,

    /// CPU cost of serializing one byte (format encoding work), before
    /// oversubscription scaling. Serialization formats multiply this.
    pub serialize_ns_per_byte: f64,

    /// Virtual-to-real byte ratio. All *timing and statistics* treat one real
    /// byte moved as `byte_scale` modelled bytes. This lets the benchmark
    /// harness reproduce the paper's 40 GB working set with laptop-scale
    /// backing memory while keeping bandwidth arithmetic exact. Correctness
    /// paths (actual data movement) are unaffected.
    pub byte_scale: u64,
}

impl MachineConfig {
    /// The paper's testbed (§4 "Testbed" + "Emulating PMEM").
    pub fn chameleon_skylake() -> Self {
        MachineConfig {
            profile_name: "optane-gen1",
            needs_flush: true,
            cores: 24,
            smt_threads: 48,
            pmem_read_latency: SimTime::from_nanos(300),
            pmem_write_latency: SimTime::from_nanos(125),
            pmem_read_bw: 30_000_000_000,
            pmem_write_bw: 8_000_000_000,
            pmem_read_core_bw: 1_300_000_000,
            pmem_write_core_bw: 450_000_000,
            dram_bw: 90_000_000_000,
            core_copy_bw: 1_800_000_000,
            dram_latency: SimTime::from_nanos(85),
            syscall: SimTime::from_nanos(1_300),
            page_fault: SimTime::from_nanos(300),
            map_sync_page: SimTime::from_nanos(2_500),
            page_size: 4096,
            cacheline: 64,
            flush_base: SimTime::from_nanos(30),
            flush_per_line: SimTime::from_nanos(1) / 2, // 0.5ns, pipelined CLWB
            // Streaming stores on gen1 Optane pay a higher steady-state
            // per-line cost than pipelined CLWB (van Renen et al.), so the
            // autotuner keeps the classic CLWB path on this profile.
            ntstore_base: SimTime::from_nanos(60),
            ntstore_per_line: SimTime::from_nanos(1),
            fence: SimTime::from_nanos(30),
            net_latency: SimTime::from_nanos(900),
            net_bw: 7_000_000_000,
            storage_bw: 2_000_000_000,
            storage_latency: SimTime::from_micros(50),
            serialize_ns_per_byte: 0.05,
            byte_scale: 1,
        }
    }

    /// A small machine useful for stressing contention effects in tests.
    pub fn tiny(cores: usize) -> Self {
        MachineConfig {
            cores,
            smt_threads: cores * 2,
            ..Self::chameleon_skylake()
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        Self::chameleon_skylake()
    }
}

/// The shared node: fluid-shared resources + counters + oversubscription
/// state.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    active_ranks: AtomicUsize,
    pub stats: Stats,
    /// Optional trace sink. Disabled (unset) by default; checking it costs
    /// one atomic load, so the instrumented paths are free when tracing is
    /// off. Spans only read clocks — they can never change virtual time.
    trace: OnceLock<Arc<dyn TraceSink>>,
    /// Optional metrics registry, same lifecycle and guarantees as `trace`:
    /// install-once, zero-cost when unset, and attribution only *reads*
    /// clocks so enabling metrics can never change a virtual-time result.
    metrics: OnceLock<Arc<MetricsRegistry>>,
}

impl Machine {
    pub fn new(config: MachineConfig) -> Arc<Self> {
        Arc::new(Machine {
            active_ranks: AtomicUsize::new(1),
            stats: Stats::default(),
            config,
            trace: OnceLock::new(),
            metrics: OnceLock::new(),
        })
    }

    /// The paper's node with default constants.
    pub fn chameleon() -> Arc<Self> {
        Self::new(MachineConfig::chameleon_skylake())
    }

    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The device-profile name this machine's constants were built from.
    pub fn profile_name(&self) -> &'static str {
        self.config.profile_name
    }

    /// Declare how many ranks are running (set by the MPI runner).
    pub fn set_active_ranks(&self, n: usize) {
        self.active_ranks.store(n.max(1), Ordering::Relaxed);
    }

    pub fn active_ranks(&self) -> usize {
        self.active_ranks.load(Ordering::Relaxed)
    }

    // ---- tracing ----

    /// Install a trace sink. Returns `false` if one was already installed
    /// (the sink can only be set once per machine).
    pub fn set_trace_sink(&self, sink: Arc<dyn TraceSink>) -> bool {
        self.trace.set(sink).is_ok()
    }

    /// Begin a span on `clock`: returns the current virtual instant, or
    /// `None` when tracing is disabled so callers skip all bookkeeping.
    #[inline]
    pub fn trace_start(&self, clock: &Clock) -> Option<SimTime> {
        if self.trace.get().is_some() {
            Some(clock.now())
        } else {
            None
        }
    }

    /// Complete a span opened with [`Machine::trace_start`]. No-op when
    /// tracing is disabled or `start` is `None`.
    #[inline]
    pub fn trace_finish(
        &self,
        clock: &Clock,
        start: Option<SimTime>,
        cat: &'static str,
        name: impl Into<Cow<'static, str>>,
        arg: Option<(&'static str, u64)>,
    ) {
        let (Some(start), Some(sink)) = (start, self.trace.get()) else {
            return;
        };
        let now = clock.now();
        sink.record(TraceSpan {
            cat,
            name: name.into(),
            lane: clock.lane(),
            start,
            dur: now.saturating_sub(start),
            arg,
        });
    }

    // ---- metrics ----

    /// Install a metrics registry. Returns `false` if one was already
    /// installed (the registry can only be set once per machine).
    pub fn set_metrics(&self, registry: Arc<MetricsRegistry>) -> bool {
        self.metrics.set(registry).is_ok()
    }

    pub fn metrics_enabled(&self) -> bool {
        self.metrics.get().is_some()
    }

    /// The installed registry, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.get()
    }

    /// Open a semantic phase label on the calling thread: until the guard
    /// drops, every virtual nanosecond this thread charges is attributed
    /// to `label` (innermost scope wins) instead of the primitive's name.
    /// Inert — no thread-local traffic at all — when metrics are disabled.
    #[inline]
    pub fn phase_scope(&self, label: &'static str) -> PhaseScope {
        if self.metrics.get().is_some() {
            PhaseScope::push(label)
        } else {
            PhaseScope::inert()
        }
    }

    /// Add to a named counter; no-op when metrics are disabled.
    #[inline]
    pub fn metric_counter_add(&self, name: &str, n: u64) {
        if let Some(m) = self.metrics.get() {
            m.counter_add(name, n);
        }
    }

    /// Record a sample into a named log₂ histogram; no-op when metrics are
    /// disabled. Dimensionless samples (hop counts, batch sizes) ride the
    /// same nanosecond-typed buckets as latencies.
    #[inline]
    pub fn metric_hist_record(&self, name: &str, v: SimTime) {
        if let Some(m) = self.metrics.get() {
            m.hist_record(name, v);
        }
    }

    /// Begin measuring a wait (a clock jump not driven by a `charge_*`
    /// primitive, e.g. a receiver synchronizing to a message's delivery
    /// instant). Returns `None` when metrics are disabled.
    #[inline]
    pub fn metrics_start(&self, clock: &Clock) -> Option<SimTime> {
        if self.metrics.get().is_some() {
            Some(clock.now())
        } else {
            None
        }
    }

    /// Attribute the time since [`Machine::metrics_start`] to `label`
    /// (e.g. `"mpi.wait"`). Waits always keep their own label — they are
    /// never folded into the surrounding phase scope — so reports can
    /// separate load imbalance from attributed work.
    #[inline]
    pub fn metrics_wait(&self, clock: &Clock, t0: Option<SimTime>, label: &'static str) {
        let (Some(t0), Some(m)) = (t0, self.metrics.get()) else {
            return;
        };
        let dt = clock.now().saturating_sub(t0);
        m.phase_add(clock.lane(), label, dt);
        m.hist_record(label, dt);
    }

    /// Begin an observed interval: `Some(now)` when tracing *or* metrics
    /// is enabled, `None` (all bookkeeping skipped) otherwise.
    #[inline]
    fn obs_start(&self, clock: &Clock) -> Option<SimTime> {
        if self.trace.get().is_some() || self.metrics.get().is_some() {
            Some(clock.now())
        } else {
            None
        }
    }

    /// Close an observed interval opened with [`Machine::obs_start`]:
    /// emits the "prim" trace span and attributes the virtual-time delta
    /// to the innermost phase label (falling back to the primitive name).
    /// Because every clock advance happens inside exactly one such
    /// interval, per-lane phase totals tile the rank's timeline.
    #[inline]
    fn obs_finish(
        &self,
        clock: &Clock,
        t0: Option<SimTime>,
        name: &'static str,
        arg: Option<(&'static str, u64)>,
    ) {
        let Some(t0) = t0 else {
            return;
        };
        self.trace_finish(clock, Some(t0), "prim", name, arg);
        if let Some(m) = self.metrics.get() {
            let dt = clock.now().saturating_sub(t0);
            m.phase_add(clock.lane(), metrics::current_phase().unwrap_or(name), dt);
            m.hist_record(name, dt);
        }
    }

    /// Close a primitive-level span (category "prim") with a byte argument.
    #[inline]
    fn prim_finish(&self, clock: &Clock, t0: Option<SimTime>, name: &'static str, bytes: u64) {
        self.obs_finish(clock, t0, name, Some(("bytes", bytes)));
    }

    /// Multiplier applied to CPU-bound work when more ranks than cores run.
    pub fn cpu_factor(&self) -> u64 {
        let ranks = self.active_ranks();
        (ranks as u64).div_ceil(self.config.cores as u64).max(1)
    }

    /// Scale a span of single-threaded CPU work by the oversubscription factor.
    #[inline]
    fn cpu_scaled(&self, t: SimTime) -> SimTime {
        t * self.cpu_factor()
    }

    /// Convert real bytes moved into modelled bytes (see
    /// [`MachineConfig::byte_scale`]).
    #[inline]
    fn scaled_bytes(&self, bytes: u64) -> u64 {
        bytes * self.config.byte_scale
    }

    /// Fluid-share effective bandwidth for one rank: its per-core attended
    /// bound (time-sliced when oversubscribed), capped by a fair share of
    /// the aggregate.
    #[inline]
    fn effective_bw(&self, core_bw: u64, aggregate_bw: u64) -> u64 {
        let share = aggregate_bw / self.active_ranks() as u64;
        (core_bw / self.cpu_factor()).min(share).max(1)
    }

    /// Charge pure CPU work (e.g. encoding) to a rank.
    pub fn charge_compute(&self, clock: &Clock, t: SimTime) {
        clock.advance(self.cpu_scaled(t));
    }

    /// Charge fixed CPU work as a named primitive, so the duration stays
    /// inside the phase-tiling contract (attributed to the innermost phase,
    /// falling back to `name`) and shows up in traces/histograms. Used by
    /// higher layers for DRAM index probes and seqlock retry penalties.
    pub fn charge_compute_labeled(&self, clock: &Clock, t: SimTime, name: &'static str) {
        let t0 = self.obs_start(clock);
        clock.advance(self.cpu_scaled(t));
        self.obs_finish(clock, t0, name, None);
    }

    /// CPU cost of serializing `bytes` through a format with the given
    /// relative cost factor (1.0 = the machine's base rate).
    pub fn charge_serialize(&self, clock: &Clock, bytes: u64, format_factor: f64) {
        let t0 = self.obs_start(clock);
        let bytes = self.scaled_bytes(bytes);
        let ns = self.config.serialize_ns_per_byte * format_factor * bytes as f64;
        self.charge_compute(clock, SimTime::from_secs_f64(ns / 1e9));
        self.prim_finish(clock, t0, "serialize", bytes);
    }

    /// A DRAM→DRAM copy of `bytes`: bound by the copying core and by a fair
    /// share of the memory bus.
    pub fn charge_dram_copy(&self, clock: &Clock, bytes: u64) {
        let t0 = self.obs_start(clock);
        let bytes = self.scaled_bytes(bytes);
        self.stats
            .dram_bytes_copied
            .fetch_add(bytes, Ordering::Relaxed);
        let bw = self.effective_bw(self.config.core_copy_bw, self.config.dram_bw);
        clock.advance(self.config.dram_latency + SimTime::for_transfer(bytes, bw));
        self.prim_finish(clock, t0, "dram.copy", bytes);
    }

    /// A store stream into PMEM media (the actual persist traffic): the rank
    /// streams at its attended per-core throughput, capped by its fair share
    /// of the device's aggregate write bandwidth.
    pub fn charge_pmem_write(&self, clock: &Clock, bytes: u64) {
        let t0 = self.obs_start(clock);
        let bytes = self.scaled_bytes(bytes);
        self.stats
            .pmem_bytes_written
            .fetch_add(bytes, Ordering::Relaxed);
        let bw = self.effective_bw(self.config.pmem_write_core_bw, self.config.pmem_write_bw);
        clock.advance(self.config.pmem_write_latency + SimTime::for_transfer(bytes, bw));
        self.prim_finish(clock, t0, "pmem.write", bytes);
    }

    /// A load stream out of PMEM media (same two bounds as writes).
    pub fn charge_pmem_read(&self, clock: &Clock, bytes: u64) {
        let t0 = self.obs_start(clock);
        let bytes = self.scaled_bytes(bytes);
        self.stats
            .pmem_bytes_read
            .fetch_add(bytes, Ordering::Relaxed);
        let bw = self.effective_bw(self.config.pmem_read_core_bw, self.config.pmem_read_bw);
        clock.advance(self.config.pmem_read_latency + SimTime::for_transfer(bytes, bw));
        self.prim_finish(clock, t0, "pmem.read", bytes);
    }

    /// Metadata store: like [`Machine::charge_pmem_write`] but *not*
    /// multiplied by `byte_scale`. Library-internal structures (allocator
    /// headers, undo logs, hashtable entries) have fixed real sizes
    /// regardless of how large the modelled payload volume is.
    pub fn charge_pmem_write_meta(&self, clock: &Clock, bytes: u64) {
        let t0 = self.obs_start(clock);
        self.stats
            .pmem_bytes_written
            .fetch_add(bytes, Ordering::Relaxed);
        let bw = self.effective_bw(self.config.pmem_write_core_bw, self.config.pmem_write_bw);
        clock.advance(self.config.pmem_write_latency + SimTime::for_transfer(bytes, bw));
        self.prim_finish(clock, t0, "pmem.meta_write", bytes);
    }

    /// Metadata load: unscaled counterpart of [`Machine::charge_pmem_read`].
    pub fn charge_pmem_read_meta(&self, clock: &Clock, bytes: u64) {
        let t0 = self.obs_start(clock);
        self.stats
            .pmem_bytes_read
            .fetch_add(bytes, Ordering::Relaxed);
        let bw = self.effective_bw(self.config.pmem_read_core_bw, self.config.pmem_read_bw);
        clock.advance(self.config.pmem_read_latency + SimTime::for_transfer(bytes, bw));
        self.prim_finish(clock, t0, "pmem.meta_read", bytes);
    }

    /// One kernel crossing.
    pub fn charge_syscall(&self, clock: &Clock) {
        let t0 = self.obs_start(clock);
        self.stats.syscalls.fetch_add(1, Ordering::Relaxed);
        clock.advance(self.cpu_scaled(self.config.syscall));
        self.obs_finish(clock, t0, "syscall", None);
    }

    /// `n` minor faults on a DAX mapping; with `map_sync` each dirty page
    /// additionally waits for filesystem metadata synchronization.
    pub fn charge_page_faults(&self, clock: &Clock, n: u64, map_sync: bool) {
        if n == 0 {
            return;
        }
        let t0 = self.obs_start(clock);
        self.stats.page_faults.fetch_add(n, Ordering::Relaxed);
        let mut per_page = self.config.page_fault;
        if map_sync {
            self.stats
                .map_sync_page_syncs
                .fetch_add(n, Ordering::Relaxed);
            per_page += self.config.map_sync_page;
        }
        clock.advance(self.cpu_scaled(per_page * n));
        self.obs_finish(clock, t0, "page_fault", Some(("pages", n)));
    }

    /// Flush a byte range of cachelines toward the persistence domain.
    /// Free (no time, no counter) on eADR profiles: the cache already sits
    /// inside the persistence domain, so no writeback is ever issued.
    pub fn charge_flush(&self, clock: &Clock, bytes: u64) {
        if !self.config.needs_flush {
            return;
        }
        let t0 = self.obs_start(clock);
        self.stats.flush_calls.fetch_add(1, Ordering::Relaxed);
        let lines = self.scaled_bytes(bytes).div_ceil(self.config.cacheline);
        let t = self.config.flush_base + self.config.flush_per_line * lines;
        clock.advance(self.cpu_scaled(t));
        self.prim_finish(clock, t0, "flush", bytes);
    }

    /// A streaming (non-temporal) persist of a byte range: one ntstore-style
    /// whole-record writeback instead of per-line CLWB. Shares the
    /// `flush_calls` counter with [`Machine::charge_flush`] — both are one
    /// persist-initiation per call — and is likewise free on eADR profiles.
    pub fn charge_ntstore(&self, clock: &Clock, bytes: u64) {
        if !self.config.needs_flush {
            return;
        }
        let t0 = self.obs_start(clock);
        self.stats.flush_calls.fetch_add(1, Ordering::Relaxed);
        let lines = self.scaled_bytes(bytes).div_ceil(self.config.cacheline);
        let t = self.config.ntstore_base + self.config.ntstore_per_line * lines;
        clock.advance(self.cpu_scaled(t));
        self.prim_finish(clock, t0, "ntstore", bytes);
    }

    /// A store fence.
    pub fn charge_fence(&self, clock: &Clock) {
        let t0 = self.obs_start(clock);
        self.stats.fences.fetch_add(1, Ordering::Relaxed);
        clock.advance(self.cpu_scaled(self.config.fence));
        self.obs_finish(clock, t0, "fence", None);
    }

    /// One message over the node fabric; returns the delivery instant so the
    /// receiver's clock can be synchronized by the caller.
    pub fn charge_message(&self, sender: &Clock, bytes: u64) -> SimTime {
        let t0 = self.obs_start(sender);
        let bytes = self.scaled_bytes(bytes);
        self.stats.net_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.stats.net_messages.fetch_add(1, Ordering::Relaxed);
        let bw = self.effective_bw(self.config.net_bw, self.config.net_bw);
        let delivery = sender.advance(self.config.net_latency + SimTime::for_transfer(bytes, bw));
        self.prim_finish(sender, t0, "net.send", bytes);
        delivery
    }

    /// A write toward the burst-buffer / mass-storage tier.
    pub fn charge_storage_write(&self, clock: &Clock, bytes: u64) {
        let t0 = self.obs_start(clock);
        let bytes = self.scaled_bytes(bytes);
        self.stats
            .storage_bytes_written
            .fetch_add(bytes, Ordering::Relaxed);
        let bw = self.effective_bw(self.config.storage_bw, self.config.storage_bw);
        clock.advance(self.config.storage_latency + SimTime::for_transfer(bytes, bw));
        self.prim_finish(clock, t0, "storage.write", bytes);
    }

    /// Ideal busy time per shared resource (modelled bytes over aggregate
    /// bandwidth) — a lower bound on the phase length each resource imposes.
    pub fn utilization(&self) -> Vec<(&'static str, SimTime, u64)> {
        let s = self.stats.snapshot();
        vec![
            (
                "pmem-read",
                SimTime::for_transfer(s.pmem_bytes_read, self.config.pmem_read_bw),
                s.pmem_bytes_read,
            ),
            (
                "pmem-write",
                SimTime::for_transfer(s.pmem_bytes_written, self.config.pmem_write_bw),
                s.pmem_bytes_written,
            ),
            (
                "dram-bus",
                SimTime::for_transfer(s.dram_bytes_copied, self.config.dram_bw),
                s.dram_bytes_copied,
            ),
            (
                "fabric",
                SimTime::for_transfer(s.net_bytes, self.config.net_bw),
                s.net_bytes,
            ),
            (
                "storage",
                SimTime::for_transfer(s.storage_bytes_written, self.config.storage_bw),
                s.storage_bytes_written,
            ),
        ]
    }

    /// Clear all counters (start of a fresh timed region).
    pub fn reset(&self) {
        self.stats.reset();
    }

    /// Run `f` with a *quiesced* snapshot of the machine's counters.
    ///
    /// [`Stats`] counters are advisory Relaxed atomics: a snapshot taken
    /// while other ranks are still charging can land between the fields of
    /// one logical operation, and `Stats::reset` racing a snapshot can
    /// under-report a region (see the contract on [`StatsSnapshot`]).
    /// Measurement code must therefore only read deltas at points where no
    /// rank is mutating — i.e. at rank barriers. This helper is that
    /// read point: it re-snapshots until two consecutive snapshots agree,
    /// so a straggler's in-flight burst is never cut in half, then hands
    /// the settled snapshot to `f`. The bench harness calls it after the
    /// closing barrier of each timed phase.
    pub fn with_quiesced_stats<T>(&self, f: impl FnOnce(&StatsSnapshot) -> T) -> T {
        let mut prev = self.stats.snapshot();
        loop {
            let next = self.stats.snapshot();
            if next == prev {
                return f(&next);
            }
            prev = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chameleon_constants_match_paper() {
        let c = MachineConfig::chameleon_skylake();
        assert_eq!(c.cores, 24);
        assert_eq!(c.pmem_read_latency, SimTime::from_nanos(300));
        assert_eq!(c.pmem_write_latency, SimTime::from_nanos(125));
        assert_eq!(c.pmem_read_bw, 30_000_000_000);
        assert_eq!(c.pmem_write_bw, 8_000_000_000);
    }

    #[test]
    fn oversubscription_kicks_in_past_core_count() {
        let m = Machine::chameleon();
        m.set_active_ranks(24);
        assert_eq!(m.cpu_factor(), 1);
        m.set_active_ranks(25);
        assert_eq!(m.cpu_factor(), 2);
        m.set_active_ranks(48);
        assert_eq!(m.cpu_factor(), 2);
        m.set_active_ranks(49);
        assert_eq!(m.cpu_factor(), 3);
    }

    #[test]
    fn pmem_write_charges_the_binding_bound() {
        let m = Machine::chameleon();
        let c = Clock::new();
        m.charge_pmem_write(&c, 8_000_000_000);
        // A single rank is bound by its attended throughput (450 MB/s),
        // not the 8 GB/s aggregate.
        let expect = 8_000_000_000.0 / 450_000_000.0;
        assert!((c.now().as_secs_f64() - expect).abs() < 0.01);
        assert_eq!(m.stats.snapshot().pmem_bytes_written, 8_000_000_000);
    }

    #[test]
    fn many_ranks_hit_the_aggregate_bound() {
        let m = Machine::chameleon();
        m.set_active_ranks(24);
        let mut last = SimTime::ZERO;
        for _ in 0..24 {
            let c = Clock::new();
            // ~1.67 GB per rank: 24 * 1.67 GB = 40 GB at 8 GB/s = 5 s.
            m.charge_pmem_write(&c, 1_666_666_667);
            last = last.max(c.now());
        }
        assert!((last.as_secs_f64() - 5.0).abs() < 0.2, "last={last}");
    }

    #[test]
    fn map_sync_faults_cost_more() {
        let m = Machine::chameleon();
        let plain = Clock::new();
        let synced = Clock::new();
        m.charge_page_faults(&plain, 100, false);
        m.charge_page_faults(&synced, 100, true);
        assert!(synced.now() > plain.now());
        let s = m.stats.snapshot();
        assert_eq!(s.page_faults, 200);
        assert_eq!(s.map_sync_page_syncs, 100);
    }

    #[test]
    fn dram_copy_is_bounded_by_slowest_of_core_and_bus() {
        let m = Machine::chameleon();
        let c = Clock::new();
        // 1.8 GB at 1.8 GB/s per-core = 1s locally; bus at 90 GB/s is faster.
        m.charge_dram_copy(&c, 1_800_000_000);
        assert!(c.now() >= SimTime::from_secs_f64(1.0));
        assert!(c.now() < SimTime::from_secs_f64(1.1));
    }

    #[test]
    fn reset_restores_pristine_machine() {
        let m = Machine::chameleon();
        let c = Clock::new();
        m.charge_pmem_write(&c, 1000);
        m.charge_syscall(&c);
        m.reset();
        assert_eq!(m.stats.snapshot().pmem_bytes_written, 0);
        assert!(m
            .utilization()
            .iter()
            .all(|(_, busy, n)| *busy == SimTime::ZERO && *n == 0));
    }

    #[test]
    fn tracing_records_spans_without_changing_time() {
        use crate::trace::CollectingSink;
        let run = |traced: bool| {
            let m = Machine::chameleon();
            let sink = CollectingSink::new();
            if traced {
                assert!(m.set_trace_sink(sink.clone()));
                assert!(!m.set_trace_sink(sink.clone()), "sink must be install-once");
            }
            let c = Clock::with_lane(7);
            m.charge_serialize(&c, 4096, 1.0);
            m.charge_pmem_write(&c, 4096);
            m.charge_flush(&c, 4096);
            m.charge_fence(&c);
            m.charge_syscall(&c);
            (c.now(), sink.spans())
        };
        let (t_off, _) = run(false);
        let (t_on, spans) = run(true);
        assert_eq!(t_on, t_off, "tracing must not perturb virtual time");
        let names: Vec<_> = spans.iter().map(|s| s.name.as_ref()).collect();
        assert_eq!(
            names,
            ["serialize", "pmem.write", "flush", "fence", "syscall"]
        );
        assert!(spans.iter().all(|s| s.lane == 7 && s.cat == "prim"));
        // Spans tile the timeline: each starts where the previous ended.
        let mut cursor = SimTime::ZERO;
        for s in &spans {
            assert_eq!(s.start, cursor);
            cursor = s.start + s.dur;
        }
        assert_eq!(cursor, t_on);
    }

    #[test]
    fn metrics_attribute_every_nanosecond_without_changing_time() {
        use crate::metrics::MetricsRegistry;
        let run = |on: bool| {
            let m = Machine::chameleon();
            let reg = MetricsRegistry::new();
            if on {
                assert!(m.set_metrics(reg.clone()));
                assert!(!m.set_metrics(reg.clone()), "registry must be install-once");
            }
            let c = Clock::with_lane(5);
            m.charge_serialize(&c, 4096, 1.0);
            {
                let _p = m.phase_scope("put.memcpy");
                m.charge_pmem_write(&c, 4096);
                m.charge_flush(&c, 4096);
            }
            m.charge_fence(&c);
            (c.now(), reg.snapshot())
        };
        let (t_off, s_off) = run(false);
        let (t_on, s) = run(true);
        assert_eq!(t_on, t_off, "metrics must not perturb virtual time");
        assert!(s_off.phases.is_empty(), "disabled registry records nothing");
        // Phase totals tile the lane's timeline exactly.
        assert_eq!(s.lane_total(5), t_on);
        let labels: Vec<_> = s.lane_phases(5).iter().map(|(n, _)| *n).collect();
        assert_eq!(labels, ["fence", "put.memcpy", "serialize"]);
        // The scoped charges were folded under the semantic label...
        assert!(s.phases.keys().all(|(_, n)| n != "pmem.write"));
        // ...while their per-primitive histograms kept the prim name.
        assert_eq!(s.hists["pmem.write"].count, 1);
        assert_eq!(s.hists["flush"].count, 1);
    }

    #[test]
    fn phase_scope_is_inert_when_metrics_are_off() {
        let m = Machine::chameleon();
        let _p = m.phase_scope("anything");
        assert_eq!(crate::metrics::current_phase(), None);
    }

    #[test]
    fn metrics_wait_records_clock_jumps() {
        use crate::metrics::MetricsRegistry;
        let m = Machine::chameleon();
        let reg = MetricsRegistry::new();
        assert!(m.set_metrics(reg.clone()));
        let c = Clock::with_lane(2);
        let t0 = m.metrics_start(&c);
        c.advance_to(SimTime::from_nanos(700));
        m.metrics_wait(&c, t0, "mpi.wait");
        let s = reg.snapshot();
        assert_eq!(
            s.lane_phases(2),
            vec![("mpi.wait", SimTime::from_nanos(700))]
        );
        assert_eq!(s.lane_total(2), c.now());
    }

    #[test]
    fn quiesced_stats_hand_back_a_settled_snapshot() {
        let m = Machine::chameleon();
        let c = Clock::new();
        m.charge_pmem_write(&c, 1234);
        let bytes = m.with_quiesced_stats(|s| s.pmem_bytes_written);
        assert_eq!(bytes, 1234);
    }

    #[test]
    fn utilization_reports_all_servers() {
        let m = Machine::chameleon();
        let names: Vec<_> = m.utilization().iter().map(|(n, _, _)| *n).collect();
        assert_eq!(
            names,
            ["pmem-read", "pmem-write", "dram-bus", "fabric", "storage"]
        );
    }
}
