//! End-to-end: the §4.1 workload through every library, verified bit-exactly.

use baselines::{figure_lineup, PioLibrary, PmemcpyLib, Target};
use mpi_sim::run_world;
use pmem_sim::{Machine, PersistenceMode, PmemDevice};
use simfs::{MountMode, SimFs};
use std::sync::Arc;
use workloads::BlockDecomp;

fn drive(lib: &dyn PioLibrary, nprocs: usize, dims: [u64; 3]) {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 96 << 20, PersistenceMode::Fast);
    let target = if lib.needs_devdax() {
        Target::DevDax(Arc::clone(&dev))
    } else {
        let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
        fs.mkdir_p(&pmem_sim::Clock::new(), "/out").unwrap();
        Target::Fs {
            fs,
            path: format!("/out/{}", lib.name()),
        }
    };
    struct Ptr(*const dyn PioLibrary);
    unsafe impl Send for Ptr {}
    unsafe impl Sync for Ptr {}
    // SAFETY: run_world joins all ranks before `drive` returns.
    let lib_ptr = Arc::new(Ptr(unsafe {
        std::mem::transmute::<&dyn PioLibrary, &'static dyn PioLibrary>(lib)
    }));
    run_world(machine, nprocs, move |comm| {
        let lib: &dyn PioLibrary = unsafe { &*lib_ptr.0 };
        let decomp = BlockDecomp::new(&dims, comm.size() as u64);
        let vars: Vec<String> = ["rho", "u", "v", "E"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let blocks: Vec<Vec<f64>> = (0..vars.len())
            .map(|v| workloads::generate_block(&decomp, v, comm.rank() as u64))
            .collect();
        lib.write(&comm, &target, &decomp, &vars, &blocks)
            .unwrap_or_else(|e| panic!("{} write: {e}", lib.name()));
        comm.barrier();
        let back = lib
            .read(&comm, &target, &decomp, &vars)
            .unwrap_or_else(|e| panic!("{} read: {e}", lib.name()));
        for (v, block) in back.iter().enumerate() {
            assert_eq!(
                workloads::verify_block(&decomp, v, comm.rank() as u64, block),
                0,
                "{} corrupted var {v}",
                lib.name()
            );
        }
    });
}

#[test]
fn every_figure_library_round_trips_at_6_ranks() {
    for lib in figure_lineup() {
        drive(lib.as_ref(), 6, [18, 18, 18]);
    }
}

#[test]
fn every_figure_library_round_trips_at_1_rank() {
    for lib in figure_lineup() {
        drive(lib.as_ref(), 1, [12, 12, 12]);
    }
}

#[test]
fn odd_rank_counts_and_odd_dims() {
    // Non-power-of-two ranks, dims with remainders in every dimension.
    for lib in figure_lineup() {
        drive(lib.as_ref(), 5, [17, 13, 11]);
    }
}

#[test]
fn virtual_time_advances_for_every_rank() {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 64 << 20, PersistenceMode::Fast);
    let dev2 = Arc::clone(&dev);
    let times = run_world(machine, 2, move |comm| {
        let decomp = BlockDecomp::new(&[16, 16, 16], 2);
        let vars = vec!["x".to_string()];
        let blocks = vec![workloads::generate_block(&decomp, 0, comm.rank() as u64)];
        let lib = PmemcpyLib::variant_a();
        let target = Target::DevDax(Arc::clone(&dev2));
        lib.write(&comm, &target, &decomp, &vars, &blocks).unwrap();
        comm.now()
    });
    assert!(times.iter().all(|t| t.as_nanos() > 0));
}

#[test]
fn cross_serializer_write_read_through_core_api() {
    use pmemcpy::{MmapTarget, Options, Pmem};
    for ser in ["bp4", "cereal", "capnp-lite", "raw"] {
        let machine = Machine::chameleon();
        let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
        let dev2 = Arc::clone(&dev);
        let ser = ser.to_string();
        run_world(machine, 3, move |comm| {
            let opts = Options {
                serializer: ser.clone(),
                ..Options::default()
            };
            let mut pmem = Pmem::with_options(opts);
            pmem.mmap(MmapTarget::DevDax(&dev2), &comm).unwrap();
            let data: Vec<f64> = (0..500)
                .map(|i| i as f64 + comm.rank() as f64 * 0.5)
                .collect();
            let id = format!("v{}", comm.rank());
            pmem.store_slice(&id, &data).unwrap();
            comm.barrier();
            assert_eq!(pmem.load_slice::<f64>(&id).unwrap(), data);
            pmem.munmap().unwrap();
        });
    }
}
