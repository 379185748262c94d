//! `domain_write` / `domain_read`: the paper's §4.1 job, the PMCPY-A cell of
//! Fig. 6 and Fig. 7 at 24 ranks — 10 f64 3-D variables, real bytes scaled to
//! the paper's 40 GB through `byte_scale`, driven through
//! `baselines::PmemcpyLib::variant_a` exactly as `figures fig6`/`fig7` drive
//! it.
//!
//! Both cells run the same two passes, write then symmetric read-back with
//! bit-exact `verify_block`; what differs is which pass is the timed phase.
//! The data plane does all the work here (`pmem.write` is 97 % of virtual
//! time against 250 keys of metadata), so a scheduler or hashtable change
//! must predict *no move* on these two.
//!
//! The job is written against `dyn PioLibrary`, so the comparator pass of the
//! traced run ([`run_library`]) sends the other libraries through the very
//! same code.

use super::{fresh_device, observe, reopen, timed_world, IterCfg, Iteration, Scale, Tally, Timed};
use crate::gen::key_prefix;
use crate::spans::Call;
use baselines::{PioLibrary, PmemcpyLib, Target};
use pmem_sim::{
    Machine, MachineConfig, MetricsRegistry, MetricsSnapshot, PersistenceMode, PmemDevice,
};
use pmemcpy::Options;
use simfs::{MountMode, SimFs};
use std::sync::Arc;
use std::time::Instant;
use workloads::{BlockDecomp, Domain3dSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Write,
    Read,
}

/// The paper's modelled volume.
const MODELLED_BYTES: u64 = 40 << 30;
pub const RANKS: u64 = 24;
const NVARS: usize = 10;

/// Real bytes of the cell the benchmark reports. The virtual clock does not
/// depend on it beyond rounding (`byte_scale` makes up the difference); host
/// time and memory do.
pub const FULL_REAL_BYTES: u64 = 128 << 20;
/// Real bytes of the `results/ci_baseline/` cells `--selfcheck` compares to.
pub const SELFCHECK_REAL_BYTES: u64 = 8 << 20;

/// One prepared job: machine, device, decomposition, data.
pub struct Job {
    pub machine: Arc<Machine>,
    pub device: Arc<PmemDevice>,
    pub target: Target,
    pub decomp: Arc<BlockDecomp>,
    pub vars: Arc<Vec<String>>,
    /// `blocks[rank][var]`.
    pub blocks: Arc<Vec<Vec<Vec<f64>>>>,
    pub actual_bytes: u64,
    pub byte_scale: u64,
    pub generate_host_s: f64,
}

/// Set up the job for `lib_name` at `real_bytes` on `nprocs` ranks. Variable
/// names carry `prefix` (same length for every seed) so each seed hashes its
/// 250 keys to other buckets.
pub fn prepare(lib_name: &str, real_bytes: u64, nprocs: u64, prefix: Option<&str>) -> Job {
    let spec = Domain3dSpec {
        total_bytes: real_bytes,
        nvars: NVARS,
        nprocs,
    };
    let actual_bytes = spec.actual_bytes();
    let byte_scale = (MODELLED_BYTES / actual_bytes).max(1);
    let config = MachineConfig {
        byte_scale,
        ..MachineConfig::chameleon_skylake()
    };
    // Real data plus generous metadata/format overhead, as `figures` sizes it.
    let dev_size = (real_bytes * 3 + (32 << 20)) as usize;
    let (machine, device) = fresh_device(config, dev_size, PersistenceMode::Fast);
    let target = if lib_name.starts_with("PMCPY") {
        Target::DevDax(Arc::clone(&device))
    } else {
        let fs = SimFs::mount_all(Arc::clone(&device), MountMode::Dax);
        fs.mkdir_p(&pmem_sim::Clock::new(), "/job")
            .expect("mkdir /job on a fresh filesystem");
        Target::Fs {
            fs,
            path: format!("/job/{lib_name}.out"),
        }
    };
    let decomp = spec.decompose();
    let vars: Vec<String> = spec
        .var_names()
        .into_iter()
        .map(|v| match prefix {
            Some(p) => format!("{p}.{v}"),
            None => v,
        })
        .collect();
    let t = Instant::now();
    let blocks: Vec<Vec<Vec<f64>>> = (0..nprocs)
        .map(|rank| {
            (0..NVARS)
                .map(|v| workloads::generate_block(&decomp, v, rank))
                .collect()
        })
        .collect();
    let generate_host_s = t.elapsed().as_secs_f64();
    Job {
        machine,
        device,
        target,
        decomp: Arc::new(decomp),
        vars: Arc::new(vars),
        blocks: Arc::new(blocks),
        actual_bytes,
        byte_scale,
        generate_host_s,
    }
}

/// The write pass: every rank one `lib.write` from open to close.
pub fn write_pass(job: &Job, lib: &Arc<dyn PioLibrary>, cfg: &IterCfg) -> Timed<()> {
    let (lib, target) = (Arc::clone(lib), job.target.clone());
    let (decomp, vars, blocks) = (
        Arc::clone(&job.decomp),
        Arc::clone(&job.vars),
        Arc::clone(&job.blocks),
    );
    let ranks = decomp.nprocs() as usize;
    timed_world(&job.machine, ranks, cfg, move |comm, rec| {
        let mut tally = Tally::new(());
        let r = rec.time(Call::Put, || {
            lib.write(comm, &target, &decomp, &vars, &blocks[comm.rank()])
        });
        tally.call("write", r);
        tally
    })
}

/// The symmetric read pass; each rank hands its blocks back for checking.
pub fn read_pass(job: &Job, lib: &Arc<dyn PioLibrary>, cfg: &IterCfg) -> Timed<Vec<Vec<f64>>> {
    let (lib, target) = (Arc::clone(lib), job.target.clone());
    let (decomp, vars) = (Arc::clone(&job.decomp), Arc::clone(&job.vars));
    let ranks = decomp.nprocs() as usize;
    timed_world(&job.machine, ranks, cfg, move |comm, rec| {
        let mut tally = Tally::new(Vec::new());
        let r = rec.time(Call::Get, || lib.read(comm, &target, &decomp, &vars));
        if let Some(blocks) = tally.call("read", r) {
            tally.out = blocks;
        }
        tally
    })
}

/// Bit-exact check of every block every rank read back; returns host seconds.
pub fn verify(job: &Job, read: &[Vec<Vec<f64>>], it: &mut Iteration) -> f64 {
    let t = Instant::now();
    for (rank, blocks) in read.iter().enumerate() {
        it.check(blocks.len() == NVARS, || {
            format!(
                "rank {rank} read {} variables, expected {NVARS}",
                blocks.len()
            )
        });
        for (v, block) in blocks.iter().enumerate() {
            let mismatches = workloads::verify_block(&job.decomp, v, rank as u64, block);
            it.check(mismatches == 0, || {
                format!("rank {rank} variable {v}: {mismatches} elements differ")
            });
        }
    }
    t.elapsed().as_secs_f64()
}

fn sizes(cfg: &IterCfg) -> (u64, u64) {
    let real = match cfg.scale {
        Scale::Full => FULL_REAL_BYTES,
        Scale::Selfcheck => SELFCHECK_REAL_BYTES,
    };
    (real, if cfg.collapse { 1 } else { RANKS })
}

/// One iteration of `domain_write` or `domain_read`.
pub fn run(direction: Direction, cfg: &IterCfg) -> Iteration {
    let mut it = Iteration::default();
    let setup = Instant::now();
    let (real_bytes, nprocs) = sizes(cfg);
    let prefix = (cfg.scale == Scale::Full).then(|| key_prefix(cfg.seed));
    let job = prepare("PMCPY-A", real_bytes, nprocs, prefix.as_deref());
    it.generate_host_s = job.generate_host_s;
    let lib: Arc<dyn PioLibrary> = Arc::new(PmemcpyLib::variant_a());
    let untimed = IterCfg {
        traced: false,
        ..*cfg
    };
    if direction == Direction::Read {
        // The data a read cell reads: produced in set-up, counters cleared.
        write_pass(&job, &lib, &untimed).into_untimed_phase(&mut it);
        job.machine.reset();
    }
    it.setup_host_s = setup.elapsed().as_secs_f64();

    let registry = observe(&job.machine, cfg);
    let read_back = match direction {
        Direction::Write => {
            write_pass(&job, &lib, cfg).into_timed_phase(&mut it);
            None
        }
        Direction::Read => Some(read_pass(&job, &lib, cfg).into_timed_phase(&mut it)),
    };
    it.metrics = registry.map(|r| r.snapshot());
    it.payload_bytes = job.actual_bytes * job.byte_scale;
    it.live_payload_bytes = job.actual_bytes;
    it.timed_ops = nprocs * NVARS as u64;

    // 10 `#dims` records + one block per rank and variable.
    let expected_keys = NVARS as u64 * (1 + nprocs);
    // What a restarting application asks first: every variable's dimensions.
    let inspect = |pmem: &pmemcpy::Pmem, it: &mut Iteration| {
        for var in job.vars.iter() {
            let dims = pmem.load_dims(var).map(|(_, dims)| dims);
            it.check(
                dims.as_ref().is_ok_and(|d| *d == job.decomp.global_dims),
                || format!("load_dims({var}) after reopen: {dims:?}"),
            );
        }
    };
    if let Some(shape) = reopen(&job.device, &Options::pmcpy_a(), &mut it, inspect) {
        it.check(shape.entries == expected_keys, || {
            format!(
                "pool holds {} keys, expected {expected_keys}",
                shape.entries
            )
        });
    }
    let read_back =
        read_back.unwrap_or_else(|| read_pass(&job, &lib, &untimed).into_untimed_phase(&mut it));
    it.verify_host_s = verify(&job, &read_back, &mut it);
    it
}

/// One library through one direction of the job, for the comparator pass:
/// returns the timed phase's virtual seconds and the registry snapshot.
pub fn run_library(
    lib: Arc<dyn PioLibrary>,
    direction: Direction,
    real_bytes: u64,
    it: &mut Iteration,
) -> (f64, MetricsSnapshot) {
    let job = prepare(lib.name(), real_bytes, RANKS, None);
    let cfg = IterCfg {
        seed: 0,
        iteration: 0,
        traced: false,
        collapse: false,
        scale: Scale::Full,
    };
    if direction == Direction::Read {
        write_pass(&job, &lib, &cfg).into_untimed_phase(it);
        job.machine.reset();
    }
    let registry = MetricsRegistry::new();
    job.machine.set_metrics(Arc::clone(&registry));
    let sim_ns = match direction {
        Direction::Write => {
            let pass = write_pass(&job, &lib, &cfg);
            let sim_ns = pass.sim_ns();
            pass.into_untimed_phase(it);
            sim_ns
        }
        Direction::Read => {
            let pass = read_pass(&job, &lib, &cfg);
            let sim_ns = pass.sim_ns();
            let blocks = pass.into_untimed_phase(it);
            verify(&job, &blocks, it);
            sim_ns
        }
    };
    (sim_ns as f64 / 1e9, registry.snapshot())
}
