//! Experiment driver: the two kinds of cell every experiment is built
//! from. [`run_cell`] is one cell of Figure 6/7 = (library, #procs,
//! direction); [`run_storm_cell`] is the key-creation storm.
//!
//! Real data volumes are scaled down from the paper's 40 GB via the
//! machine's `byte_scale`, which multiplies every modelled byte count so the
//! bandwidth arithmetic is performed at full scale while host memory use
//! stays small. Correctness is still verified bit-exactly on the real data.

use baselines::{PioLibrary, Target};
use mpi_sim::{run_world_mode, SchedMode};
use pmem_sim::{
    Clock, CollectingSink, Machine, MachineConfig, MetricsRegistry, MetricsSnapshot,
    PersistenceMode, PmemDevice, SimTime, StatsSnapshot,
};
use pmemcpy::{registry, MmapTarget, Options, Pmem};
use simfs::{MountMode, SimFs};
use std::sync::Arc;
use workloads::{Domain3dSpec, StormSpec};

/// Which direction of the §4.1 workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Write,
    Read,
}

impl Direction {
    /// Stable lowercase name used in report JSON and file names.
    pub fn as_str(self) -> &'static str {
        match self {
            Direction::Write => "write",
            Direction::Read => "read",
        }
    }
}

/// Configuration of one sweep cell.
#[derive(Debug, Clone)]
pub struct CellConfig {
    pub nprocs: u64,
    /// Real bytes generated (all variables together).
    pub real_bytes: u64,
    /// Modelled bytes = real_bytes * byte_scale (the paper: 40 GB).
    pub byte_scale: u64,
    /// Machine template (byte_scale is overridden per the field above).
    pub machine: MachineConfig,
    /// Rank scheduling discipline; [`SchedMode::Deterministic`] makes the
    /// cell's outputs bit-identical across runs and host core counts.
    pub sched: SchedMode,
}

impl CellConfig {
    /// The paper's cell (10 variables, 40 GB modelled) at a chosen real
    /// volume on a machine template. The byte scale is computed from the
    /// volume the (grid-friendly) dimensions actually produce, so the
    /// modelled total is the paper's 40 GB regardless of rounding.
    pub fn paper_on(nprocs: u64, real_bytes: u64, machine: MachineConfig) -> Self {
        let actual = Domain3dSpec::paper(nprocs, real_bytes).actual_bytes();
        CellConfig {
            nprocs,
            real_bytes,
            byte_scale: ((40u64 << 30) / actual).max(1),
            machine,
            sched: SchedMode::Deterministic,
        }
    }
}

/// Result of one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    pub library: String,
    pub direction: Direction,
    pub nprocs: u64,
    /// Device profile the cell's machine modelled (`MachineConfig::profile_name`).
    pub device_profile: String,
    /// Put-path flush strategy: the autotuner's verdict for the cell's
    /// profile, unless the harness pinned one and overrode this field.
    pub flush_strategy: String,
    /// Job time (slowest rank).
    pub time: SimTime,
    /// Per-rank end times (index = rank).
    pub rank_times: Vec<SimTime>,
    pub stats: StatsSnapshot,
    /// Metrics snapshot, when the cell ran with a registry; empty otherwise.
    pub metrics: MetricsSnapshot,
    /// Mismatched elements found during verification (must be 0).
    pub mismatches: usize,
}

/// Run one library through one cell of the §4.1 domain workload. For
/// `Direction::Read` the data is first produced by an untimed write pass
/// with the same library.
///
/// `sink` and `registry` are optional observers installed on the cell's
/// machine only after that setup pass, so they cover exactly the timed
/// phase; `CellResult::metrics` is the registry's snapshot at the quiesced
/// point after the closing barrier. Virtual times are identical to an
/// unobserved run by construction.
pub fn run_cell(
    lib: &dyn PioLibrary,
    direction: Direction,
    cfg: &CellConfig,
    sink: Option<Arc<CollectingSink>>,
    registry: Option<Arc<MetricsRegistry>>,
) -> CellResult {
    let mut mc = cfg.machine.clone();
    mc.byte_scale = cfg.byte_scale;
    let machine = Machine::new(mc);

    // Device: real data + generous metadata/format overhead.
    let dev_size = (cfg.real_bytes * 3 + (32 << 20)) as usize;
    let device = PmemDevice::new(Arc::clone(&machine), dev_size, PersistenceMode::Fast);

    let spec = Domain3dSpec::paper(cfg.nprocs, cfg.real_bytes);
    let decomp = Arc::new(spec.decompose());
    let vars = Arc::new(spec.var_names());

    let target = if lib.needs_devdax() {
        Target::DevDax(Arc::clone(&device))
    } else {
        let fs = SimFs::mount_all(Arc::clone(&device), MountMode::Dax);
        fs.mkdir_p(&Clock::new(), "/job").expect("mkdir /job");
        Target::Fs {
            fs,
            path: pick_path(lib.name()),
        }
    };

    // The trait object lives on the caller's stack; hand rank threads a raw
    // view with the lifetime erased so it can move into 'static closures.
    // SAFETY: run_world_mode joins every rank before returning, and both
    // phases below finish before `lib`'s borrow ends, so the borrow
    // outlives every use; `PioLibrary: Send + Sync`.
    struct Ptr(*const (dyn PioLibrary + 'static));
    unsafe impl Send for Ptr {}
    unsafe impl Sync for Ptr {}
    let erased: *const dyn PioLibrary =
        unsafe { std::mem::transmute::<&dyn PioLibrary, &'static dyn PioLibrary>(lib) };
    let lib_ptr = Arc::new(Ptr(erased));

    // One parallel phase: (job time = slowest rank, per-rank end times,
    // mismatches).
    let run_phase = |direction: Direction| {
        let (decomp, vars, target) = (Arc::clone(&decomp), Arc::clone(&vars), target.clone());
        let lib = Arc::clone(&lib_ptr);
        let nprocs = cfg.nprocs as usize;
        let results = run_world_mode(Arc::clone(&machine), nprocs, cfg.sched, move |comm| {
            // SAFETY: see `Ptr` above.
            let lib: &dyn PioLibrary = unsafe { &*lib.0 };
            let rank = comm.rank() as u64;
            match direction {
                Direction::Write => {
                    let blocks: Vec<Vec<f64>> = (0..vars.len())
                        .map(|v| workloads::generate_block(&decomp, v, rank))
                        .collect();
                    lib.write(&comm, &target, &decomp, &vars, &blocks)
                        .expect("write failed");
                    // The paper measures wall-clock across the whole parallel
                    // phase; the final barrier folds the slowest rank into all.
                    comm.barrier();
                    (comm.now(), 0usize)
                }
                Direction::Read => {
                    let blocks = lib
                        .read(&comm, &target, &decomp, &vars)
                        .expect("read failed");
                    comm.barrier();
                    // Bit-exact verification costs host time only.
                    let mism = (0..vars.len())
                        .map(|v| workloads::verify_block(&decomp, v, rank, &blocks[v]))
                        .sum();
                    (comm.now(), mism)
                }
            }
        });
        let rank_times: Vec<SimTime> = results.iter().map(|(t, _)| *t).collect();
        let time = rank_times.iter().copied().fold(SimTime::ZERO, SimTime::max);
        let mismatches: usize = results.iter().map(|(_, m)| *m).sum();
        (time, rank_times, mismatches)
    };

    // Data must exist before a read cell; produce it untimed.
    if direction == Direction::Read {
        run_phase(Direction::Write);
        machine.reset();
    }

    // Install the observers only now, so traces and metrics cover just the
    // timed phase (every rank clock restarts at zero, which makes the
    // metrics lane totals equal the per-rank end times exactly).
    if let Some(sink) = sink {
        machine.set_trace_sink(sink);
    }
    if let Some(r) = &registry {
        machine.set_metrics(Arc::clone(r));
    }

    let (time, rank_times, mismatches) = run_phase(direction);
    CellResult {
        library: lib.name().to_string(),
        direction,
        nprocs: cfg.nprocs,
        device_profile: cfg.machine.profile_name.to_string(),
        flush_strategy: pmem_sim::autotune_flush(&cfg.machine).name().to_string(),
        time,
        rank_times,
        // All ranks have joined; the counters are quiesced, so the snapshot
        // is a consistent point-in-time view (see the stats module's
        // contract).
        stats: machine.with_quiesced_stats(|s| *s),
        metrics: registry.map(|r| r.snapshot()).unwrap_or_default(),
        mismatches,
    }
}

fn pick_path(lib: &str) -> String {
    match lib {
        "ADIOS" => "/job/output.bp".to_string(),
        "NetCDF" => "/job/output.nc4".to_string(),
        "pNetCDF" => "/job/output.nc".to_string(),
        "POSIX" => "/job/raw".to_string(),
        other => format!("/job/{other}.out"),
    }
}

/// Namespace shape of a finished storm, read back from the pool after the
/// timed run (stats/metrics are snapshotted first, so the inspection walk
/// never leaks into gated counters).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StormShape {
    /// Keys the directory holds.
    pub len: u64,
    /// Buckets the directory settled at.
    pub buckets: u64,
    pub max_chain: u64,
    pub chain_p99: u64,
    pub splits: u64,
    pub contended: u64,
    /// Virtual cost of each sampled read-back, rank by rank.
    pub get_costs: Vec<SimTime>,
}

/// Drive one creation storm: `spec.ranks` ranks each mint
/// `spec.keys_per_rank` fresh keys (`key_prefix` + [`StormSpec::key`])
/// through the full batched put path of a pool mounted with `opts`, then
/// time and read back every `stride`-th key
/// (staggered per rank so the sample covers different residues of the key
/// space) and count corrupted bytes into `CellResult::mismatches`. Runs
/// under the deterministic scheduler with a metrics registry installed, so
/// every counter is bit-reproducible and CI-gateable. A pool that fails to
/// reopen or whose heap breaks an allocator invariant is an error.
pub fn run_storm_cell(
    spec: StormSpec,
    key_prefix: &str,
    opts: &Options,
    stride: u64,
    mc: &MachineConfig,
) -> Result<(CellResult, StormShape), String> {
    let machine = Machine::new(mc.clone());
    let metrics = MetricsRegistry::new();
    machine.set_metrics(Arc::clone(&metrics));
    // Payloads are tiny; the device is sized by per-key metadata (entry
    // header + key + serialized value + directory growth headroom).
    let dev_size = (spec.total_keys() * 384 + (64 << 20)) as usize;
    let device = PmemDevice::new(Arc::clone(&machine), dev_size, PersistenceMode::Fast);
    let (dev2, opts2) = (Arc::clone(&device), opts.clone());
    let prefix = key_prefix.to_string();
    let results = run_world_mode(
        Arc::clone(&machine),
        spec.ranks as usize,
        SchedMode::Deterministic,
        move |comm| {
            let rank = comm.rank() as u64;
            let key = |k| format!("{prefix}{}", spec.key(rank, k));
            let mut pmem = Pmem::with_options(opts2.clone());
            pmem.mmap(MmapTarget::DevDax(&dev2), &comm).unwrap();
            let mut i = 0;
            while i < spec.keys_per_rank {
                // Group-commit in steps of 64 keys: one pool transaction,
                // one allocator pass per step.
                let n = (spec.keys_per_rank - i).min(64);
                let keys: Vec<String> = (i..i + n).map(key).collect();
                let vals: Vec<Vec<u8>> = (i..i + n).map(|k| spec.value(rank, k)).collect();
                let mut batch = pmem.batch();
                for (k, v) in keys.iter().zip(&vals) {
                    batch.store_slice::<u8>(k, v).unwrap();
                }
                batch.commit().unwrap();
                i += n;
            }
            let mut mismatches = 0u64;
            let mut get_costs = Vec::new();
            let mut k = rank % stride;
            while k < spec.keys_per_rank {
                let t0 = pmem.now();
                let got: Vec<u8> = pmem.load_slice(&key(k)).unwrap();
                get_costs.push(pmem.now() - t0);
                mismatches += spec.verify(rank, k, &got);
                k += stride;
            }
            comm.barrier();
            let t = comm.now();
            pmem.munmap().unwrap();
            (t, mismatches, get_costs)
        },
    );
    let stats = machine.stats.snapshot();
    let snap = metrics.snapshot();
    let rank_times: Vec<SimTime> = results.iter().map(|r| r.0).collect();

    // Inspect the finished namespace straight from the pool.
    let clock = Clock::new();
    let shared = registry::shared_pool(&clock, &device, "pmemcpy", opts.hashtable_buckets)
        .map_err(|e| format!("storm reopen: {e}"))?;
    let hist = shared.hashtable.chain_length_histogram(&clock);
    let len = shared.hashtable.len(&clock);
    let heap = shared.pool.check_heap();
    drop(shared);
    registry::release_pool(&device);
    heap.map_err(|e| format!("storm heap check: {e}"))?;
    let buckets: u64 = hist.iter().sum();
    let mut seen = 0u64;
    let chain_p99 = hist.iter().position(|n| {
        seen += n;
        seen * 100 >= buckets * 99
    });
    let shape = StormShape {
        len,
        buckets,
        max_chain: hist.len().saturating_sub(1) as u64,
        chain_p99: chain_p99.unwrap_or(0) as u64,
        splits: snap.counter("ht.splits"),
        contended: snap
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("stripe.") && k.ends_with(".contended"))
            .map(|(_, v)| *v)
            .sum(),
        get_costs: results.iter().flat_map(|r| r.2.iter().copied()).collect(),
    };
    let cell = CellResult {
        library: "PMCPY-A".to_string(),
        direction: Direction::Write,
        nprocs: spec.ranks,
        device_profile: mc.profile_name.to_string(),
        flush_strategy: pmem_sim::autotune_flush(mc).name().to_string(),
        time: rank_times.iter().copied().fold(SimTime::ZERO, SimTime::max),
        rank_times,
        stats,
        metrics: snap,
        mismatches: results.iter().map(|r| r.1).sum::<u64>() as usize,
    };
    Ok((cell, shape))
}
