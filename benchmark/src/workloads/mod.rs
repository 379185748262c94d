//! The five workloads and what they share: one in-process *iteration* is
//! set-up (fresh `Machine` + pre-touched `PmemDevice`, generated inputs,
//! prefill), the timed phase (open → close + closing barrier, as in the
//! paper), and the checks on what the timed phase left behind.
//!
//! Closed loop: every rank is a thread of `mpi_sim::run_world_mode` under
//! `SchedMode::Deterministic` and issues its next call when the previous one
//! returns. Input size, not a timer, ends an iteration, so every
//! virtual-clock number of an iteration repeats exactly.

pub mod domain;
pub mod kv;
pub mod storm;

use crate::spans::{Call, Recorder, Span};
use mpi_sim::{run_world_mode, Comm, SchedMode, World};
use pmem_sim::{
    Machine, MachineConfig, MetricsRegistry, MetricsSnapshot, PersistenceMode, PmemDevice,
    StatsSnapshot,
};
use pmemcpy::{registry, MmapTarget, Options, Pmem};
use std::sync::Arc;
use std::time::Instant;

/// One workload: its fixed name, why it exists (one line, also in
/// `BENCHMARK.json`), its world size, and how many iterations warm a process
/// up before anything is measured (its first iterations pay for lazy set-up:
/// allocator growth, thread stacks).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub ranks: u64,
    pub warmups: usize,
    /// The committed `results/ci_baseline/` report whose PMCPY-A cell at 24
    /// ranks this workload reproduces at [`Scale::Selfcheck`], if any.
    pub ci_baseline: Option<&'static str>,
    iteration: fn(&IterCfg) -> Iteration,
    /// The iteration that ends in a crash instead of a clean close, for the
    /// workload that has one.
    crash: Option<fn(&IterCfg) -> Iteration>,
}

/// The workloads, in report order. The names are fixed: later changes are
/// accepted or rejected on `<workload> × <metric>`.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "domain_write",
        why: "Fig. 6 cell, PMCPY-A at 24 ranks: the data plane does all the work, so a scheduler or hashtable change must predict no move here",
        ranks: domain::RANKS,
        warmups: 2,
        ci_baseline: Some("BENCH_fig6.json"),
        iteration: |cfg| domain::run(domain::Direction::Write, cfg),
        crash: None,
    },
    Workload {
        name: "domain_read",
        why: "Fig. 7 cell, the same job read back and verified bit-exactly: catches a write-path gain paid for on the read path",
        ranks: domain::RANKS,
        warmups: 2,
        ci_baseline: Some("BENCH_fig7.json"),
        iteration: |cfg| domain::run(domain::Direction::Read, cfg),
        crash: None,
    },
    Workload {
        name: "storm_inline",
        why: "8 ranks minting fresh 8-byte keys inline: metadata plane (tx/alloc/hashtable splits), scheduler hand-off dominates host time",
        ranks: storm::RANKS,
        warmups: 1,
        ci_baseline: None,
        iteration: |cfg| storm::run(false, cfg),
        crash: None,
    },
    Workload {
        name: "storm_wb",
        why: "the same storm under write-behind: one WAL append per group and a checkpoint drain, bypasses the scheduler and the put-path transactions",
        ranks: storm::RANKS,
        warmups: 1,
        ci_baseline: None,
        iteration: |cfg| storm::run(true, cfg),
        crash: None,
    },
    Workload {
        name: "kv_mixed",
        why: "1 rank, tracked device, stores with overwrites + loads + removes, then crash and recovery: no hand-off at all, only workload with frees and recovery",
        ranks: 1,
        warmups: 1,
        ci_baseline: None,
        iteration: kv::run,
        crash: Some(kv::run_crash),
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

impl Workload {
    /// Run one iteration.
    pub fn run(&self, cfg: &IterCfg) -> Iteration {
        (self.iteration)(cfg)
    }

    /// Run the iteration that crashes instead of closing, where there is one.
    pub fn run_crash(&self, cfg: &IterCfg) -> Option<Iteration> {
        self.crash.map(|crash| crash(cfg))
    }
}

/// How one iteration is to be run.
#[derive(Debug, Clone, Copy)]
pub struct IterCfg {
    pub seed: u64,
    /// Index of the iteration within the process (part of every span id).
    pub iteration: u32,
    /// Install a `MetricsRegistry` for the timed phase and keep full spans.
    pub traced: bool,
    /// Rank-collapse probe: the same op stream issued by a single rank, so no
    /// charge ever hands the scheduler token to another thread.
    pub collapse: bool,
    /// Sizing: the default sizes, or the small ones `--selfcheck` and the
    /// package's tests use.
    pub scale: Scale,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// 8 MB domain cells with the unprefixed variable names of
    /// `results/ci_baseline/`, and storms and key-value streams small enough
    /// for a test.
    Selfcheck,
}

/// Everything one iteration measured.
#[derive(Debug, Default)]
pub struct Iteration {
    /// Host seconds of everything before the timed phase.
    pub setup_host_s: f64,
    /// Host seconds inside `workloads::` generators (part of set-up).
    pub generate_host_s: f64,
    /// Host seconds checking outputs against the generators.
    pub verify_host_s: f64,
    /// Host seconds of the timed phase.
    pub host_s: f64,
    /// Slowest rank's virtual clock at the closing barrier.
    pub sim_ns: u64,
    pub rank_end_ns: Vec<u64>,
    pub put_sim_ns: Vec<u64>,
    pub get_sim_ns: Vec<u64>,
    /// Machine counters over the timed phase.
    pub stats: StatsSnapshot,
    /// Modelled user payload bytes the timed phase moved (puts + gets).
    pub payload_bytes: u64,
    /// Real payload bytes live in the pool after close.
    pub live_payload_bytes: u64,
    /// `PmemPool::allocated_bytes()` after close.
    pub allocated_bytes: u64,
    /// Restart cost: virtual time for one fresh rank to `mmap` the finished
    /// pool and read its check sample back through a cold shadow index.
    pub reopen_sim_ns: u64,
    /// The `mmap` part of `reopen_sim_ns` alone.
    pub reopen_mmap_sim_ns: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    /// One line per failed check or failed call (bounded).
    pub failures: Vec<String>,
    /// Registry snapshot taken right after the timed phase (traced only).
    pub metrics: Option<MetricsSnapshot>,
    pub spans: Vec<Span>,
    /// Logical operations the timed phase issued (for per-op ratios).
    pub timed_ops: u64,
}

impl Iteration {
    pub fn fail(&mut self, what: impl Into<String>) {
        self.ops_failed += 1;
        if self.failures.len() < 16 {
            self.failures.push(what.into());
        }
    }

    /// Count a check: attempted always, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.ops_attempted += 1;
        if !ok {
            self.fail(what());
        }
    }
}

/// A fresh machine and device. The device's memory is touched here, in
/// set-up, so the kernel's page faults on first use never land in a timed
/// phase (the first in-process iteration of the 512 MB cell took 0.7–3.8 s
/// before this, 0.45 s after).
pub fn fresh_device(
    config: MachineConfig,
    size: usize,
    mode: PersistenceMode,
) -> (Arc<Machine>, Arc<PmemDevice>) {
    let machine = Machine::new(config);
    let device = PmemDevice::new(Arc::clone(&machine), size, mode);
    device.zero_untimed(0, size);
    // Tracked devices keep a durable shadow image: touch that too, and start
    // with no line dirty.
    device.persist_untimed(0, size);
    (machine, device)
}

/// What a rank body reports back besides what its [`Recorder`] holds.
pub struct Tally<T> {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub out: T,
}

impl<T> Tally<T> {
    pub fn new(out: T) -> Self {
        Tally {
            attempted: 0,
            failures: Vec::new(),
            out,
        }
    }

    /// Count one call into the product: any `Err` is a failed op, never a
    /// panic in a timed loop.
    pub fn call<V, E: std::fmt::Display>(
        &mut self,
        what: &str,
        r: std::result::Result<V, E>,
    ) -> Option<V> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }
}

/// A finished world: both clocks, the counters, and every rank's records.
pub struct Timed<T> {
    pub host_s: f64,
    pub rank_end_ns: Vec<u64>,
    pub stats: StatsSnapshot,
    pub put_sim_ns: Vec<u64>,
    pub get_sim_ns: Vec<u64>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub outs: Vec<T>,
}

impl<T> Timed<T> {
    pub fn sim_ns(&self) -> u64 {
        self.rank_end_ns.iter().copied().max().unwrap_or(0)
    }

    /// Fold this world's clocks, counters and records into `it` as the timed
    /// phase.
    pub fn into_timed_phase(mut self, it: &mut Iteration) -> Vec<T> {
        it.host_s = self.host_s;
        it.sim_ns = self.sim_ns();
        it.rank_end_ns = std::mem::take(&mut self.rank_end_ns);
        it.stats = self.stats;
        it.spans = std::mem::take(&mut self.spans);
        self.into_untimed_phase(it)
    }

    /// Fold a world that ran outside the timed phase (prefill, read-back):
    /// only its latencies and its op accounting count.
    pub fn into_untimed_phase(self, it: &mut Iteration) -> Vec<T> {
        it.put_sim_ns.extend(self.put_sim_ns);
        it.get_sim_ns.extend(self.get_sim_ns);
        it.ops_attempted += self.attempted;
        for f in self.failures {
            it.fail(f);
        }
        self.outs
    }
}

/// Run `body` on `ranks` rank threads and time the whole world on both
/// clocks: spawn → every rank's body → closing barrier → join.
pub fn timed_world<T, F>(machine: &Arc<Machine>, ranks: usize, cfg: &IterCfg, body: F) -> Timed<T>
where
    T: Send + 'static,
    F: Fn(&Comm, &mut Recorder) -> Tally<T> + Send + Sync + 'static,
{
    let (iteration, traced) = (cfg.iteration, cfg.traced);
    let before = machine.with_quiesced_stats(|s| *s);
    let epoch = Instant::now();
    let per_rank = run_world_mode(
        Arc::clone(machine),
        ranks,
        SchedMode::Deterministic,
        move |comm| {
            let mut rec = Recorder::start(&comm, epoch, iteration, traced);
            let tally = body(&comm, &mut rec);
            rec.time(Call::Barrier, || comm.barrier());
            (comm.now().as_nanos(), rec.finish(), tally)
        },
    );
    let host_s = epoch.elapsed().as_secs_f64();
    // All ranks have joined: the counters are quiesced.
    let stats = machine.with_quiesced_stats(|s| s.delta_since(&before));
    let mut timed = Timed {
        host_s,
        rank_end_ns: Vec::with_capacity(ranks),
        stats,
        put_sim_ns: Vec::new(),
        get_sim_ns: Vec::new(),
        spans: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        outs: Vec::with_capacity(ranks),
    };
    for (end_ns, rec, tally) in per_rank {
        timed.rank_end_ns.push(end_ns);
        timed.put_sim_ns.extend(rec.put_sim_ns);
        timed.get_sim_ns.extend(rec.get_sim_ns);
        timed.spans.extend(rec.spans);
        timed.attempted += tally.attempted;
        timed.failures.extend(tally.failures);
        timed.outs.push(tally.out);
    }
    timed
}

/// Install a fresh registry for the timed phase of a traced iteration.
pub fn observe(machine: &Arc<Machine>, cfg: &IterCfg) -> Option<Arc<MetricsRegistry>> {
    cfg.traced.then(|| {
        let registry = MetricsRegistry::new();
        machine.set_metrics(Arc::clone(&registry));
        registry
    })
}

/// What the finished pool looks like from a fresh single-rank `mmap`.
pub struct Reopened {
    pub entries: u64,
    pub max_chain: u64,
}

/// Restart cost and pool shape: `mmap` the finished pool from one fresh rank
/// (recovery scan, recount, WAL replay all land on that rank's clock), let
/// `inspect` read the workload's check sample through the handle — the
/// shadow index is cold, so every lookup walks a persistent chain — then look
/// at the interned pool and unmap.
pub fn reopen(
    device: &Arc<PmemDevice>,
    opts: &Options,
    it: &mut Iteration,
    inspect: impl FnOnce(&Pmem, &mut Iteration),
) -> Option<Reopened> {
    let comm = Comm::new(World::new(Arc::clone(device.machine()), 1), 0);
    let mut pmem = Pmem::with_options(opts.clone());
    it.ops_attempted += 1;
    if let Err(e) = pmem.mmap(MmapTarget::DevDax(device), &comm) {
        it.fail(format!("reopen mmap: {e}"));
        return None;
    }
    it.reopen_mmap_sim_ns = comm.now().as_nanos();
    inspect(&pmem, it);
    it.reopen_sim_ns = comm.now().as_nanos();
    let shape = match registry::shared_pool(comm.clock(), device, "pmemcpy", opts.hashtable_buckets)
    {
        Ok(shared) => {
            it.allocated_bytes = shared.pool.allocated_bytes();
            Some(Reopened {
                entries: shared.hashtable.len(comm.clock()),
                max_chain: shared.hashtable.max_chain_len(comm.clock()),
            })
        }
        Err(e) => {
            it.fail(format!("reopen shared_pool: {e}"));
            None
        }
    };
    it.ops_attempted += 1;
    if let Err(e) = pmem.munmap() {
        it.fail(format!("reopen munmap: {e}"));
    }
    shape
}
