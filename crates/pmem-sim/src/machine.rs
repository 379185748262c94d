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

use crate::metrics::{self, MetricsRegistry};
use crate::stats::{Stats, StatsSnapshot};
use crate::time::{Clock, SimTime};
use crate::trace::{CollectingSink, TraceSpan};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};

/// The primitive a put persists its record with. Each device declares its
/// own ([`MachineConfig::flush_strategy`]); metadata persists always CLWB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushStrategy {
    /// CLWB-batched: write back the record's cachelines in pipelined runs,
    /// then one trailing fence. The classic (and gen1-optimal) path.
    Clwb,
    /// Streaming: one ntstore-style whole-record writeback that bypasses
    /// the cache, then the trailing fence.
    Ntstore,
}

impl FlushStrategy {
    pub fn name(self) -> &'static str {
        match self {
            FlushStrategy::Clwb => "clwb",
            FlushStrategy::Ntstore => "ntstore",
        }
    }

    /// The `b` word of a `profile.mount` flight event.
    pub fn code(self) -> u32 {
        match self {
            FlushStrategy::Clwb => 1,
            FlushStrategy::Ntstore => 2,
        }
    }
}

/// Tunable hardware constants.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Name of the [`crate::profile`] these constants were built from. Bench
    /// reports and pool superblocks record it so a run is always
    /// attributable to one device model.
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
    /// The persist primitive a put flushes its record with: the cheaper of
    /// the two above on this device (the `profile` unit tests hold every
    /// built-in profile to that).
    pub flush_strategy: FlushStrategy,
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
            // Pipelined CLWB's ≈ 0.5 ns a line is below the model's 1 ns
            // resolution: a line costs nothing beyond the flush's base.
            flush_per_line: SimTime::ZERO,
            // Streaming stores on gen1 Optane pay a higher steady-state
            // per-line cost than pipelined CLWB (van Renen et al.), so puts
            // keep the classic CLWB path on this profile.
            ntstore_base: SimTime::from_nanos(60),
            ntstore_per_line: SimTime::from_nanos(1),
            flush_strategy: FlushStrategy::Clwb,
            fence: SimTime::from_nanos(30),
            net_latency: SimTime::from_nanos(900),
            net_bw: 7_000_000_000,
            storage_bw: 2_000_000_000,
            storage_latency: SimTime::from_micros(50),
            serialize_ns_per_byte: 0.05,
            byte_scale: 1,
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
    trace: OnceLock<Arc<CollectingSink>>,
    /// Optional metrics registry, same lifecycle and guarantees as `trace`:
    /// install-once, zero-cost when unset, and attribution only *reads*
    /// clocks so enabling metrics can never change a virtual-time result.
    metrics: OnceLock<Arc<MetricsRegistry>>,
}

/// Which phase label a charge's duration lands under.
#[derive(Debug, Clone, Copy)]
enum Attribution {
    /// The innermost open [`Machine::phase`], else the primitive's name.
    Innermost,
    /// Always the primitive's own name (waits).
    Own,
}
use Attribution::{Innermost, Own};

/// RAII guard for one observed interval, opened by [`Machine::phase`] or
/// [`Machine::span`]. Dropping it — on any exit path, early returns and `?`
/// included — pops the phase label it pushed and records the trace span.
#[must_use = "the interval ends when this guard is dropped"]
#[derive(Debug)]
pub struct Span<'a> {
    /// Sink, clock and start instant; `None` when tracing is off.
    trace: Option<(&'a CollectingSink, &'a Clock, SimTime)>,
    /// Whether opening pushed `name` on this thread's phase stack.
    label: bool,
    cat: &'static str,
    name: &'static str,
    arg: Option<(&'static str, u64)>,
    /// `!Send`: the guard marks a region of *this thread's* call stack.
    _not_send: PhantomData<*const ()>,
}

impl Span<'_> {
    /// Attach the span's numeric argument, e.g. `("bytes", 4096)`.
    #[inline]
    pub fn arg(mut self, key: &'static str, v: u64) -> Self {
        self.set_arg(key, v);
        self
    }

    /// [`Span::arg`] for a value known only once the interval has run.
    #[inline]
    pub fn set_arg(&mut self, key: &'static str, v: u64) {
        self.arg = Some((key, v));
    }
}

impl Drop for Span<'_> {
    #[inline]
    fn drop(&mut self) {
        if self.label {
            metrics::pop_phase();
        }
        if let Some((sink, clock, start)) = self.trace {
            sink.record(TraceSpan {
                cat: self.cat,
                name: self.name,
                lane: clock.lane(),
                start,
                dur: clock.now().saturating_sub(start),
                arg: self.arg,
            });
        }
    }
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
        self.active_ranks.store(n.max(1), Relaxed);
    }

    pub fn active_ranks(&self) -> usize {
        self.active_ranks.load(Relaxed)
    }

    // ---- the observation seam ----

    /// Install the trace sink. Returns `false` if one was already installed
    /// (the sink can only be set once per machine).
    pub fn set_trace_sink(&self, sink: Arc<CollectingSink>) -> bool {
        self.trace.set(sink).is_ok()
    }

    /// Install a metrics registry. Returns `false` if one was already
    /// installed (the registry can only be set once per machine).
    pub fn set_metrics(&self, registry: Arc<MetricsRegistry>) -> bool {
        self.metrics.set(registry).is_ok()
    }

    pub fn metrics_enabled(&self) -> bool {
        self.metrics.get().is_some()
    }

    /// Open an *envelope* on `clock`: one `cat`/`name` trace span, recorded
    /// when the guard drops. It never pushes a label, so the time inside
    /// stays attributed to whatever phases and primitives run within it.
    /// Inert — no clock read — when no trace sink is installed.
    #[inline]
    pub fn span<'a>(&'a self, clock: &'a Clock, cat: &'static str, name: &'static str) -> Span<'a> {
        Span {
            trace: self.trace.get().map(|sink| (&**sink, clock, clock.now())),
            label: false,
            cat,
            name,
            arg: None,
            _not_send: PhantomData,
        }
    }

    /// Open a *phase* on `clock`: a [`Machine::span`] that also, when a
    /// metrics registry is installed, makes `name` this thread's innermost
    /// phase label — until the guard drops, every virtual nanosecond the
    /// thread charges is attributed to `name` instead of the primitive's.
    #[inline]
    pub fn phase<'a>(
        &'a self,
        clock: &'a Clock,
        cat: &'static str,
        name: &'static str,
    ) -> Span<'a> {
        let mut span = self.span(clock, cat, name);
        if self.metrics.get().is_some() {
            metrics::push_phase(name);
            span.label = true;
        }
        span
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

    /// Move `clock` forward by `dt` — the only place a clock moves — and
    /// tell the installed sinks. Because every advance passes through here
    /// exactly once, per-lane phase totals tile the rank's timeline. With
    /// no sink the cost is two `OnceLock` loads: the observed half is kept
    /// out of line so this half inlines into every primitive. Returns the
    /// instant after the advance.
    #[inline]
    fn charge(
        &self,
        clock: &Clock,
        name: &'static str,
        arg: Option<(&'static str, u64)>,
        dt: SimTime,
        attribution: Attribution,
    ) -> SimTime {
        let now = clock.advance(dt);
        if self.trace.get().is_some() || self.metrics.get().is_some() {
            self.report(clock.lane(), name, arg, now - dt, dt, attribution);
        }
        now
    }

    /// The observed half of [`Machine::charge`]: a "prim" trace span, `dt`
    /// added to one phase label of the lane, one sample in the primitive's
    /// histogram.
    #[inline(never)]
    fn report(
        &self,
        lane: u64,
        name: &'static str,
        arg: Option<(&'static str, u64)>,
        start: SimTime,
        dur: SimTime,
        attribution: Attribution,
    ) {
        if let Some(sink) = self.trace.get() {
            sink.record(TraceSpan {
                cat: "prim",
                name,
                lane,
                start,
                dur,
                arg,
            });
        }
        if let Some(m) = self.metrics.get() {
            let label = match attribution {
                Innermost => metrics::current_phase().unwrap_or(name),
                Own => name,
            };
            m.phase_add(lane, label, dur);
            m.hist_record(name, dur);
        }
    }

    /// Multiplier applied to CPU-bound work when more ranks than cores run.
    pub(crate) fn cpu_factor(&self) -> u64 {
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

    /// Fluid-share cost of streaming `bytes` over a shared resource: the
    /// per-operation latency plus the transfer at one rank's effective
    /// bandwidth — its per-core attended bound (time-sliced when
    /// oversubscribed), capped by a fair share of the aggregate.
    #[inline]
    fn stream(&self, latency: SimTime, bytes: u64, core_bw: u64, aggregate_bw: u64) -> SimTime {
        let share = aggregate_bw / self.active_ranks() as u64;
        let bw = (core_bw / self.cpu_factor()).min(share).max(1);
        latency + SimTime::for_transfer(bytes, bw)
    }

    /// Charge a byte stream as primitive `name` (innermost-phase
    /// attribution, `bytes` as the span argument).
    #[inline]
    fn charge_bytes(&self, clock: &Clock, name: &'static str, bytes: u64, dt: SimTime) -> SimTime {
        self.charge(clock, name, Some(("bytes", bytes)), dt, Innermost)
    }

    /// Charge fixed CPU work as a named primitive, so the duration stays
    /// inside the phase-tiling contract (attributed to the innermost phase,
    /// falling back to `name`) and shows up in traces/histograms. Used by
    /// higher layers for DRAM index probes.
    pub fn charge_compute_labeled(&self, clock: &Clock, t: SimTime, name: &'static str) {
        self.charge(clock, name, None, self.cpu_scaled(t), Innermost);
    }

    /// Wait until the instant `until` (no-op when it is already past): a
    /// clock jump that is not work, e.g. a receiver synchronizing to a
    /// message's delivery stamp. Waits always keep their *own* label — they
    /// are never folded into the surrounding phase — so reports can
    /// separate load imbalance from attributed work.
    pub fn charge_wait(&self, clock: &Clock, until: SimTime, name: &'static str) {
        let dt = until.saturating_sub(clock.now());
        self.charge(clock, name, None, dt, Own);
    }

    /// CPU cost of serializing `bytes` through a format with the given
    /// relative cost factor (1.0 = the machine's base rate).
    pub fn charge_serialize(&self, clock: &Clock, bytes: u64, format_factor: f64) {
        let bytes = self.scaled_bytes(bytes);
        let ns = self.config.serialize_ns_per_byte * format_factor * bytes as f64;
        let dt = self.cpu_scaled(SimTime::from_secs_f64(ns / 1e9));
        self.charge_bytes(clock, "serialize", bytes, dt);
    }

    /// A DRAM→DRAM copy of `bytes`: bound by the copying core and by a fair
    /// share of the memory bus.
    pub fn charge_dram_copy(&self, clock: &Clock, bytes: u64) {
        let (c, bytes) = (&self.config, self.scaled_bytes(bytes));
        self.stats.dram_bytes_copied.fetch_add(bytes, Relaxed);
        let dt = self.stream(c.dram_latency, bytes, c.core_copy_bw, c.dram_bw);
        self.charge_bytes(clock, "dram.copy", bytes, dt);
    }

    /// A store stream into PMEM media (the actual persist traffic): the rank
    /// streams at its attended per-core throughput, capped by its fair share
    /// of the device's aggregate write bandwidth.
    pub fn charge_pmem_write(&self, clock: &Clock, bytes: u64) {
        self.charge_pmem_write_headed(clock, 0, bytes);
    }

    /// One store stream of `head` metadata bytes and the `bytes` of the
    /// record behind them: the head is charged unscaled, as
    /// [`Machine::charge_pmem_write_meta`] charges it, the record as
    /// [`Machine::charge_pmem_write`] does, and the two share one operation.
    pub(crate) fn charge_pmem_write_headed(&self, clock: &Clock, head: u64, bytes: u64) {
        self.pmem_write(clock, "pmem.write", head + self.scaled_bytes(bytes));
    }

    /// A load stream out of PMEM media (same two bounds as writes).
    pub fn charge_pmem_read(&self, clock: &Clock, bytes: u64) {
        self.pmem_read(clock, "pmem.read", self.scaled_bytes(bytes));
    }

    /// Metadata store: like [`Machine::charge_pmem_write`] but *not*
    /// multiplied by `byte_scale`. Library-internal structures (allocator
    /// headers, undo logs, hashtable entries) have fixed real sizes
    /// regardless of how large the modelled payload volume is.
    pub fn charge_pmem_write_meta(&self, clock: &Clock, bytes: u64) {
        self.pmem_write(clock, "pmem.meta_write", bytes);
    }

    /// Metadata load: unscaled counterpart of [`Machine::charge_pmem_read`].
    pub(crate) fn charge_pmem_read_meta(&self, clock: &Clock, bytes: u64) {
        self.pmem_read(clock, "pmem.meta_read", bytes);
    }

    #[inline]
    fn pmem_write(&self, clock: &Clock, name: &'static str, bytes: u64) {
        let c = &self.config;
        self.stats.pmem_bytes_written.fetch_add(bytes, Relaxed);
        let dt = self.stream(
            c.pmem_write_latency,
            bytes,
            c.pmem_write_core_bw,
            c.pmem_write_bw,
        );
        self.charge_bytes(clock, name, bytes, dt);
    }

    #[inline]
    fn pmem_read(&self, clock: &Clock, name: &'static str, bytes: u64) {
        let c = &self.config;
        self.stats.pmem_bytes_read.fetch_add(bytes, Relaxed);
        let dt = self.stream(
            c.pmem_read_latency,
            bytes,
            c.pmem_read_core_bw,
            c.pmem_read_bw,
        );
        self.charge_bytes(clock, name, bytes, dt);
    }

    /// One kernel crossing.
    pub fn charge_syscall(&self, clock: &Clock) {
        self.stats.syscalls.fetch_add(1, Relaxed);
        self.charge_compute_labeled(clock, self.config.syscall, "syscall");
    }

    /// `n` minor faults on a DAX mapping; with `map_sync` each dirty page
    /// additionally waits for filesystem metadata synchronization.
    pub(crate) fn charge_page_faults(&self, clock: &Clock, n: u64, map_sync: bool) {
        if n == 0 {
            return;
        }
        self.stats.page_faults.fetch_add(n, Relaxed);
        let mut per_page = self.config.page_fault;
        if map_sync {
            self.stats.map_sync_page_syncs.fetch_add(n, Relaxed);
            per_page += self.config.map_sync_page;
        }
        let dt = self.cpu_scaled(per_page * n);
        self.charge(clock, "page_fault", Some(("pages", n)), dt, Innermost);
    }

    /// Flush a byte range of cachelines toward the persistence domain.
    /// Free (no time, no counter) on eADR profiles: the cache already sits
    /// inside the persistence domain, so no writeback is ever issued.
    pub(crate) fn charge_flush(&self, clock: &Clock, bytes: u64) {
        self.charge_writeback(clock, FlushStrategy::Clwb, bytes, &[]);
    }

    /// One writeback of `bytes` with `strategy`'s primitive — per-line CLWB
    /// or one ntstore-style whole-record writeback, which shares the
    /// `flush_calls` counter (both are one persist initiation) and is
    /// likewise free on eADR profiles: its base once, and its per-line cost
    /// for each line. The range starts with the `head` structures, whose
    /// lines are charged as the metadata plane flushes them (CLWB); each of
    /// them and the rest is counted in lines as a writeback of its own would
    /// count it, so a range that covers several saves only the bases.
    pub(crate) fn charge_writeback(
        &self,
        clock: &Clock,
        strategy: FlushStrategy,
        bytes: u64,
        head: &[usize],
    ) {
        let c = &self.config;
        if !c.needs_flush {
            return;
        }
        let (name, base, per_line) = match strategy {
            FlushStrategy::Clwb => ("flush", c.flush_base, c.flush_per_line),
            FlushStrategy::Ntstore => ("ntstore", c.ntstore_base, c.ntstore_per_line),
        };
        self.stats.flush_calls.fetch_add(1, Relaxed);
        let lines = |b: u64| self.scaled_bytes(b).div_ceil(c.cacheline);
        let rest = head.iter().fold(bytes, |rest, &h| rest - h as u64);
        let head = head.iter().map(|&h| lines(h as u64)).sum::<u64>();
        let dt = base + per_line * lines(rest) + c.flush_per_line * head;
        self.charge_bytes(clock, name, bytes, self.cpu_scaled(dt));
    }

    /// A store fence.
    pub(crate) fn charge_fence(&self, clock: &Clock) {
        self.stats.fences.fetch_add(1, Relaxed);
        self.charge_compute_labeled(clock, self.config.fence, "fence");
    }

    /// One message over the node fabric; returns the delivery instant so the
    /// receiver can [`Machine::charge_wait`] for it.
    pub fn charge_message(&self, sender: &Clock, bytes: u64) -> SimTime {
        let (c, bytes) = (&self.config, self.scaled_bytes(bytes));
        self.stats.net_bytes.fetch_add(bytes, Relaxed);
        self.stats.net_messages.fetch_add(1, Relaxed);
        let dt = self.stream(c.net_latency, bytes, c.net_bw, c.net_bw);
        self.charge_bytes(sender, "net.send", bytes, dt)
    }

    /// A write toward the burst-buffer / mass-storage tier.
    pub fn charge_storage_write(&self, clock: &Clock, bytes: u64) {
        let (c, bytes) = (&self.config, self.scaled_bytes(bytes));
        self.stats.storage_bytes_written.fetch_add(bytes, Relaxed);
        let dt = self.stream(c.storage_latency, bytes, c.storage_bw, c.storage_bw);
        self.charge_bytes(clock, "storage.write", bytes, dt);
    }

    /// Clear all counters (start of a fresh timed region).
    pub fn reset(&self) {
        self.stats.reset();
    }

    /// Run `f` on a snapshot of the machine's counters. Call it at a
    /// quiescent point (after the ranks have joined), where one read is
    /// exact — see the consistency contract of the stats module.
    pub fn with_quiesced_stats<T>(&self, f: impl FnOnce(&StatsSnapshot) -> T) -> T {
        f(&self.stats.snapshot())
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
        assert_eq!(m.stats.snapshot(), StatsSnapshot::default());
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
            (c.now(), sink.take())
        };
        let (t_off, _) = run(false);
        let (t_on, spans) = run(true);
        assert_eq!(t_on, t_off, "tracing must not perturb virtual time");
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
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
                let _p = m.phase(&c, "put", "put.memcpy");
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
    fn guard_with_no_sink_pushes_no_label_and_records_no_span() {
        use crate::trace::CollectingSink;
        let m = Machine::chameleon();
        let c = Clock::new();
        {
            let _p = m.phase(&c, "put", "anything");
            assert_eq!(crate::metrics::current_phase(), None);
            // Sinks installed while the guard is open do not see it either:
            // it pushed nothing, so it must pop and record nothing.
            let sink = CollectingSink::new();
            assert!(m.set_trace_sink(sink.clone()));
            assert!(m.set_metrics(crate::metrics::MetricsRegistry::new()));
            crate::metrics::push_phase("outer");
            drop(_p);
            assert_eq!(crate::metrics::current_phase(), Some("outer"));
            crate::metrics::pop_phase();
            assert!(sink.is_empty());
        }
    }

    #[test]
    fn wait_records_clock_jumps_under_its_own_label() {
        use crate::metrics::MetricsRegistry;
        let m = Machine::chameleon();
        let reg = MetricsRegistry::new();
        assert!(m.set_metrics(reg.clone()));
        let c = Clock::with_lane(2);
        m.charge_wait(&c, SimTime::from_nanos(700), "mpi.wait");
        // An instant already past is a zero-length wait, not a step back.
        m.charge_wait(&c, SimTime::from_nanos(300), "mpi.wait");
        {
            // Inside an open phase the jump still lands under its own label.
            let _p = m.phase(&c, "mpi", "rearrange");
            m.charge_wait(&c, SimTime::from_nanos(1_000), "mpi.wait");
        }
        let s = reg.snapshot();
        assert_eq!(
            s.lane_phases(2),
            vec![("mpi.wait", SimTime::from_nanos(1_000))],
            "nothing under rearrange"
        );
        assert_eq!(s.hists["mpi.wait"].count, 3);
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
}
