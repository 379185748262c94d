//! Cross-cutting behaviours: layouts agree, MAP_SYNC ordering, hierarchy,
//! and the machine model's qualitative properties.

use mpi_sim::{run_world, Comm, World};
use pmem_sim::{Machine, MachineConfig, PersistenceMode, PmemDevice, SimTime};
use pmemcpy::{MmapTarget, Options, Pmem};
use simfs::{MountMode, SimFs};
use std::sync::Arc;

fn single_comm(machine: &Arc<Machine>) -> Comm {
    Comm::new(World::new(Arc::clone(machine), 1), 0)
}

#[test]
fn both_layouts_store_identical_logical_content() {
    let machine = Machine::chameleon();
    let data: Vec<f64> = (0..1000).map(|i| (i * 7) as f64).collect();

    // Hashtable layout on devdax.
    let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
    let comm = single_comm(&machine);
    let mut a = Pmem::new();
    a.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    a.store_slice("field", &data).unwrap();

    // Hierarchical layout on a DAX fs.
    let dev2 = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
    let fs = SimFs::mount_all(Arc::clone(&dev2), MountMode::Dax);
    let mut b = Pmem::new();
    b.mmap(
        MmapTarget::Fs {
            fs: &fs,
            dir: "/vars",
        },
        &comm,
    )
    .unwrap();
    b.store_slice("field", &data).unwrap();

    assert_eq!(
        a.load_slice::<f64>("field").unwrap(),
        b.load_slice::<f64>("field").unwrap()
    );
    a.munmap().unwrap();
    b.munmap().unwrap();
}

#[test]
fn load_dims_round_trips_through_both_layouts() {
    let machine = Machine::chameleon();
    let comm = single_comm(&machine);
    let dims = [64u64, 32, 16];

    let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
    let mut a = Pmem::new();
    a.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    a.alloc::<f64>("cube", &dims).unwrap();
    assert_eq!(a.load_dims("cube").unwrap().1, dims.to_vec());
    a.munmap().unwrap();

    let dev2 = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
    let fs = SimFs::mount_all(Arc::clone(&dev2), MountMode::Dax);
    let mut b = Pmem::new();
    b.mmap(MmapTarget::Fs { fs: &fs, dir: "/d" }, &comm)
        .unwrap();
    b.alloc::<u32>("cube", &dims).unwrap();
    let (dtype, got) = b.load_dims("cube").unwrap();
    assert_eq!(dtype, pserial::Datatype::U32);
    assert_eq!(got, dims.to_vec());
    b.munmap().unwrap();
}

#[test]
fn map_sync_order_a_faster_than_b_everywhere() {
    // For the same workload, PMCPY-A <= PMCPY-B in virtual time at any scale.
    for nprocs in [1usize, 4, 8] {
        let run = |map_sync: bool| -> SimTime {
            let machine = Machine::chameleon();
            let dev = PmemDevice::new(Arc::clone(&machine), 64 << 20, PersistenceMode::Fast);
            let dev2 = Arc::clone(&dev);
            let times = run_world(machine, nprocs, move |comm| {
                let mut pmem = Pmem::with_options(Options {
                    map_sync,
                    ..Options::default()
                });
                pmem.mmap(MmapTarget::DevDax(&dev2), &comm).unwrap();
                pmem.store_slice(&format!("r{}", comm.rank()), &vec![1.0f64; 1 << 14])
                    .unwrap();
                let t = pmem.now();
                pmem.munmap().unwrap();
                t
            });
            times.into_iter().fold(SimTime::ZERO, SimTime::max)
        };
        let a = run(false);
        let b = run(true);
        assert!(a < b, "nprocs={nprocs}: A={a} B={b}");
    }
}

#[test]
fn oversubscription_slows_cpu_bound_work() {
    // 48 ranks on 24 cores: CPU-bound costs are time-sliced.
    let cfg = MachineConfig::chameleon_skylake();
    let m24 = Machine::new(cfg.clone());
    m24.set_active_ranks(24);
    let m48 = Machine::new(cfg);
    m48.set_active_ranks(48);
    let (c24, c48) = (pmem_sim::Clock::new(), pmem_sim::Clock::new());
    m24.charge_serialize(&c24, 1 << 20, 1.0);
    m48.charge_serialize(&c48, 1 << 20, 1.0);
    assert!(c48.now() > c24.now());
}

#[test]
fn fluid_share_caps_aggregate_bandwidth() {
    // 8 ranks writing 1 GB each: no rank can finish before 8 GB / 8 GB/s.
    let machine = Machine::chameleon();
    machine.set_active_ranks(24);
    let clock = pmem_sim::Clock::new();
    machine.charge_pmem_write(&clock, 1_000_000_000);
    // Fair share at 24 ranks = 8/24 GB/s -> 3 s for 1 GB.
    assert!(clock.now().as_secs_f64() > 2.9);
}

#[test]
fn hierarchical_ids_create_real_directories() {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
    let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
    let comm = single_comm(&machine);
    let mut pmem = Pmem::new();
    pmem.mmap(
        MmapTarget::Fs {
            fs: &fs,
            dir: "/sim",
        },
        &comm,
    )
    .unwrap();
    pmem.store_scalar("timestep/0042/energy", 1.5f64).unwrap();
    assert!(fs.exists("/sim/timestep/0042/energy"));
    assert!(fs
        .list_dir("/sim/timestep")
        .unwrap()
        .iter()
        .any(|(n, _)| n == "0042"));
    assert_eq!(
        pmem.load_scalar::<f64>("timestep/0042/energy").unwrap(),
        1.5
    );
    pmem.munmap().unwrap();
}

#[test]
fn byte_scale_preserves_correctness_and_scales_time() {
    // The same real workload at two scales: identical data, proportional time.
    let run = |scale: u64| -> (Vec<f64>, SimTime) {
        let cfg = MachineConfig {
            byte_scale: scale,
            ..MachineConfig::chameleon_skylake()
        };
        let machine = Machine::new(cfg);
        let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
        let comm = single_comm(&machine);
        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
        let data: Vec<f64> = (0..4096).map(|i| i as f64).collect();
        pmem.store_slice("x", &data).unwrap();
        let out = pmem.load_slice::<f64>("x").unwrap();
        let t = pmem.now();
        pmem.munmap().unwrap();
        (out, t)
    };
    let (d1, t1) = run(1);
    let (d8, t8) = run(8);
    assert_eq!(d1, d8);
    let ratio = t8.as_nanos() as f64 / t1.as_nanos() as f64;
    assert!(ratio > 4.0 && ratio < 12.0, "scaling ratio {ratio}");
}
