//! Experiment driver: one cell of Figure 6/7 = (library, #procs, direction).
//!
//! Real data volumes are scaled down from the paper's 40 GB via the
//! machine's `byte_scale`, which multiplies every modelled byte count so the
//! bandwidth arithmetic is performed at full scale while host memory use
//! stays small. Correctness is still verified bit-exactly on the real data.

use baselines::{PioLibrary, Target};
use mpi_sim::{run_world_mode, SchedMode};
use pmem_sim::{
    CollectingSink, Machine, MachineConfig, MetricsRegistry, MetricsSnapshot, PersistenceMode,
    PmemDevice, SimTime, StatsSnapshot,
};
use simfs::{MountMode, SimFs};
use std::sync::Arc;
use workloads::{BlockDecomp, Domain3dSpec};

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
    pub nvars: usize,
    /// Verify read-back data bit-exactly (host-time cost only).
    pub verify: bool,
    /// Repetitions averaged (the paper averages 3 runs).
    pub repeats: u32,
    /// Machine template (byte_scale is overridden per the field above).
    pub machine: MachineConfig,
    /// Rank scheduling discipline; [`SchedMode::Deterministic`] makes the
    /// cell's outputs bit-identical across runs and host core counts.
    pub sched: SchedMode,
}

impl CellConfig {
    /// The paper's cell at a chosen real volume. The byte scale is computed
    /// from the volume the (grid-friendly) dimensions actually produce, so
    /// the modelled total is the paper's 40 GB regardless of rounding.
    pub fn paper(nprocs: u64, real_bytes: u64) -> Self {
        let target = 40u64 << 30;
        let actual = Domain3dSpec {
            total_bytes: real_bytes,
            nvars: 10,
            nprocs,
        }
        .actual_bytes();
        CellConfig {
            nprocs,
            real_bytes,
            byte_scale: (target / actual).max(1),
            nvars: 10,
            verify: true,
            repeats: 1,
            machine: MachineConfig::chameleon_skylake(),
            sched: SchedMode::Deterministic,
        }
    }

    /// [`CellConfig::paper`] on an explicit machine template — the
    /// device-profile sweeps. The byte scale is still recomputed from the
    /// real volume; only the hardware constants change.
    pub fn paper_on(nprocs: u64, real_bytes: u64, machine: MachineConfig) -> Self {
        CellConfig {
            machine,
            ..Self::paper(nprocs, real_bytes)
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
    /// Job time (slowest rank), averaged over repeats.
    pub time: SimTime,
    /// Per-rank end times of the last repetition (index = rank).
    pub rank_times: Vec<SimTime>,
    pub stats: StatsSnapshot,
    /// Metrics snapshot of the last repetition, when the cell was run with
    /// a registry (see [`run_cell_observed`]); empty otherwise.
    pub metrics: MetricsSnapshot,
    /// Mismatched elements found during verification (must be 0).
    pub mismatches: usize,
}

/// Run one library through one cell. For `Direction::Read` the data is
/// first produced by an untimed write pass with the same library.
pub fn run_cell(lib: &dyn PioLibrary, direction: Direction, cfg: &CellConfig) -> CellResult {
    let mut total = SimTime::ZERO;
    let mut last = CellOnce::default();
    for _ in 0..cfg.repeats.max(1) {
        last = run_cell_once(lib, direction, cfg, None, None);
        total += last.time;
    }
    CellResult {
        library: lib.name().to_string(),
        direction,
        nprocs: cfg.nprocs,
        device_profile: cfg.machine.profile_name.to_string(),
        flush_strategy: pmem_sim::autotune_flush(&cfg.machine).name().to_string(),
        time: total / cfg.repeats.max(1) as u64,
        rank_times: last.rank_times,
        stats: last.stats, // keep the last repetition's counters
        metrics: MetricsSnapshot::default(),
        mismatches: last.mismatches,
    }
}

/// Like [`run_cell`] but runs a single repetition with a trace sink
/// installed on the cell's machine, so every rank's spans (and the timed
/// phase's collectives, pool transactions and persists) land in `sink`.
/// Virtual times are identical to the untraced run by construction.
pub fn run_cell_traced(
    lib: &dyn PioLibrary,
    direction: Direction,
    cfg: &CellConfig,
    sink: Arc<CollectingSink>,
) -> CellResult {
    run_cell_observed(lib, direction, cfg, Some(sink), None)
}

/// Single repetition with any combination of observers installed on the
/// cell's machine: a trace sink, a metrics registry, or both. Observers
/// are installed only after the untimed setup pass (the write that feeds
/// a read cell), so they cover exactly the timed phase; the returned
/// `CellResult::metrics` is the registry's snapshot at the quiesced point
/// after the closing barrier. Virtual times are identical to an
/// unobserved run by construction.
pub fn run_cell_observed(
    lib: &dyn PioLibrary,
    direction: Direction,
    cfg: &CellConfig,
    sink: Option<Arc<CollectingSink>>,
    registry: Option<Arc<MetricsRegistry>>,
) -> CellResult {
    let once = run_cell_once(lib, direction, cfg, sink, registry);
    CellResult {
        library: lib.name().to_string(),
        direction,
        nprocs: cfg.nprocs,
        device_profile: cfg.machine.profile_name.to_string(),
        flush_strategy: pmem_sim::autotune_flush(&cfg.machine).name().to_string(),
        time: once.time,
        rank_times: once.rank_times,
        stats: once.stats,
        metrics: once.metrics,
        mismatches: once.mismatches,
    }
}

#[derive(Default)]
struct CellOnce {
    time: SimTime,
    rank_times: Vec<SimTime>,
    stats: StatsSnapshot,
    metrics: MetricsSnapshot,
    mismatches: usize,
}

fn run_cell_once(
    lib: &dyn PioLibrary,
    direction: Direction,
    cfg: &CellConfig,
    sink: Option<Arc<CollectingSink>>,
    registry: Option<Arc<MetricsRegistry>>,
) -> CellOnce {
    let mut mc = cfg.machine.clone();
    mc.byte_scale = cfg.byte_scale;
    let machine = Machine::new(mc);

    // Device: real data + generous metadata/format overhead.
    let dev_size = (cfg.real_bytes * 3 + (32 << 20)) as usize;
    let device = PmemDevice::new(Arc::clone(&machine), dev_size, PersistenceMode::Fast);

    let spec = Domain3dSpec {
        total_bytes: cfg.real_bytes,
        nvars: cfg.nvars,
        nprocs: cfg.nprocs,
    };
    let decomp = Arc::new(spec.decompose());
    let vars = Arc::new(spec.var_names());

    let target = if lib.name().starts_with("PMCPY") {
        Target::DevDax(Arc::clone(&device))
    } else {
        let fs = SimFs::mount_all(Arc::clone(&device), MountMode::Dax);
        fs.mkdir_p(&pmem_sim::Clock::new(), "/job")
            .expect("mkdir /job");
        Target::Fs {
            fs,
            path: pick_path(lib.name()),
        }
    };

    // Data must exist before a read cell; produce it untimed.
    if direction == Direction::Read {
        run_phase(
            lib,
            Direction::Write,
            &machine,
            &target,
            &decomp,
            &vars,
            cfg,
            false,
        );
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

    let verify = cfg.verify && direction == Direction::Read;
    let (time, rank_times, mism) = run_phase(
        lib, direction, &machine, &target, &decomp, &vars, cfg, verify,
    );
    // All ranks have joined; the counters are quiesced, so the snapshot is a
    // consistent point-in-time view (see the stats module's contract).
    let stats = machine.with_quiesced_stats(|s| *s);
    let metrics = registry.map(|r| r.snapshot()).unwrap_or_default();
    CellOnce {
        time,
        rank_times,
        stats,
        metrics,
        mismatches: mism,
    }
}

/// Run the parallel phase; returns (job time = slowest rank, per-rank end
/// times, mismatches).
#[allow(clippy::too_many_arguments)]
fn run_phase(
    lib: &dyn PioLibrary,
    direction: Direction,
    machine: &Arc<Machine>,
    target: &Target,
    decomp: &Arc<BlockDecomp>,
    vars: &Arc<Vec<String>>,
    cfg: &CellConfig,
    verify: bool,
) -> (SimTime, Vec<SimTime>, usize) {
    // The trait object lives on the caller's stack; hand threads a raw view.
    // SAFETY: run_world_mode joins every rank before returning, so the borrow
    // outlives every use. The lifetime is erased to move it into 'static
    // closures.
    struct Ptr(*const (dyn PioLibrary + 'static));
    unsafe impl Send for Ptr {}
    unsafe impl Sync for Ptr {}
    let erased: *const dyn PioLibrary =
        unsafe { std::mem::transmute::<&dyn PioLibrary, &'static dyn PioLibrary>(lib) };
    let lib_ptr = Arc::new(Ptr(erased));

    let (decomp, vars, target) = (Arc::clone(decomp), Arc::clone(vars), target.clone());
    let nprocs = cfg.nprocs as usize;
    let results = run_world_mode(Arc::clone(machine), nprocs, cfg.sched, move |comm| {
        let lib: &dyn PioLibrary = unsafe { &*lib_ptr.0 };
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
                let mism = if verify {
                    (0..vars.len())
                        .map(|v| workloads::verify_block(&decomp, v, rank, &blocks[v]))
                        .sum()
                } else {
                    0
                };
                (comm.now(), mism)
            }
        }
    });
    let rank_times: Vec<SimTime> = results.iter().map(|(t, _)| *t).collect();
    let time = rank_times.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let mism = results.iter().map(|(_, m)| *m).sum();
    (time, rank_times, mism)
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
