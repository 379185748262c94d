//! Behavioural tests of the pMEMCPY public API across layouts, serializers,
//! and rank counts.

use mpi_sim::run_world;
use pmem_sim::{Machine, PersistenceMode, PmemDevice, SimTime};
use pmemcpy::{impl_pod, MmapTarget, Options, Pmem};
use simfs::{MountMode, SimFs};
use std::sync::Arc;

fn devdax(mb: usize) -> Arc<PmemDevice> {
    PmemDevice::new(Machine::chameleon(), mb << 20, PersistenceMode::Fast)
}

fn mapped_single(opts: Options, dev: &Arc<PmemDevice>) -> (Pmem, mpi_sim::Comm) {
    let world = mpi_sim::World::new(Arc::clone(dev.machine()), 1);
    let comm = mpi_sim::Comm::new(world, 0);
    let mut pmem = Pmem::with_options(opts);
    pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
    (pmem, comm)
}

#[test]
fn scalar_round_trip_all_serializers() {
    for ser in ["bp4", "cereal", "capnp-lite", "raw"] {
        let dev = devdax(8);
        let opts = Options {
            serializer: ser.into(),
            ..Options::default()
        };
        let (mut pmem, _comm) = mapped_single(opts, &dev);
        pmem.store_scalar("answer", 42.5f64).unwrap();
        pmem.store_scalar("count", 7u64).unwrap();
        assert_eq!(
            pmem.load_scalar::<f64>("answer").unwrap(),
            42.5,
            "ser={ser}"
        );
        assert_eq!(pmem.load_scalar::<u64>("count").unwrap(), 7, "ser={ser}");
        pmem.munmap().unwrap();
    }
}

#[test]
fn slice_round_trip_and_overwrite() {
    let dev = devdax(8);
    let (mut pmem, _comm) = mapped_single(Options::default(), &dev);
    let data: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25).collect();
    pmem.store_slice("wave", &data).unwrap();
    assert_eq!(pmem.load_slice::<f64>("wave").unwrap(), data);
    // Overwrite with different length (replace semantics).
    let shorter = vec![1.0f64; 10];
    pmem.store_slice("wave", &shorter).unwrap();
    assert_eq!(pmem.load_slice::<f64>("wave").unwrap(), shorter);
    pmem.munmap().unwrap();
}

#[repr(C)]
#[derive(Clone, Copy, PartialEq, Debug)]
struct SimState {
    step: u64,
    time: f64,
    dt: f64,
    energy: f64,
}
impl_pod!(SimState, 32);

#[test]
fn pod_struct_round_trip() {
    let dev = devdax(8);
    let (mut pmem, _comm) = mapped_single(Options::default(), &dev);
    let st = SimState {
        step: 100,
        time: 0.5,
        dt: 1e-6,
        energy: -3.25,
    };
    pmem.store_pod("state", &st).unwrap();
    assert_eq!(pmem.load_pod::<SimState>("state").unwrap(), st);
    pmem.munmap().unwrap();
}

#[test]
fn dims_are_stored_automatically() {
    let dev = devdax(8);
    let (mut pmem, _comm) = mapped_single(Options::default(), &dev);
    pmem.alloc::<f64>("grid", &[128, 64, 32]).unwrap();
    let (dtype, dims) = pmem.load_dims("grid").unwrap();
    assert_eq!(dtype, pserial::Datatype::F64);
    assert_eq!(dims, vec![128, 64, 32]);
    // The #dims companion is a real key.
    assert!(pmem.exists("grid#dims"));
    pmem.munmap().unwrap();
}

#[test]
fn parallel_block_store_load_matches_figure3() {
    let dev = devdax(32);
    let dev2 = Arc::clone(&dev);
    run_world(Arc::clone(dev.machine()), 8, move |comm| {
        let count = 100u64;
        let off = count * comm.rank() as u64;
        let dimsf = count * comm.size() as u64;
        let data: Vec<f64> = (0..count).map(|i| (off + i) as f64).collect();

        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev2), &comm).unwrap();
        if comm.rank() == 0 {
            pmem.alloc::<f64>("A", &[dimsf]).unwrap();
        }
        comm.barrier();
        pmem.store_block("A", &data, &[off], &[count]).unwrap();
        comm.barrier();
        // Symmetric read of a *neighbour's* block.
        let peer = (comm.rank() + 1) % comm.size();
        let poff = count * peer as u64;
        let mut back = vec![0f64; count as usize];
        pmem.load_block("A", &mut back, &[poff], &[count]).unwrap();
        for (i, v) in back.iter().enumerate() {
            assert_eq!(*v, (poff + i as u64) as f64);
        }
        pmem.munmap().unwrap();
    });
}

#[test]
fn three_d_blocks_round_trip() {
    let dev = devdax(32);
    let dev2 = Arc::clone(&dev);
    run_world(Arc::clone(dev.machine()), 4, move |comm| {
        let decomp = workloads::BlockDecomp::new(&[16, 16, 16], comm.size() as u64);
        let (off, dims) = decomp.block(comm.rank() as u64);
        let block = workloads::generate_block(&decomp, 0, comm.rank() as u64);

        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev2), &comm).unwrap();
        if comm.rank() == 0 {
            pmem.alloc::<f64>("rho", &[16, 16, 16]).unwrap();
        }
        comm.barrier();
        pmem.store_block("rho", &block, &off, &dims).unwrap();
        comm.barrier();
        let mut back = vec![0f64; block.len()];
        pmem.load_block("rho", &mut back, &off, &dims).unwrap();
        assert_eq!(
            workloads::verify_block(&decomp, 0, comm.rank() as u64, &back),
            0
        );
        pmem.munmap().unwrap();
    });
}

#[test]
fn hierarchical_layout_round_trip_with_directories() {
    let dev = devdax(16);
    let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
    let world = mpi_sim::World::new(Arc::clone(dev.machine()), 1);
    let comm = mpi_sim::Comm::new(world, 0);
    let mut pmem = Pmem::new();
    pmem.mmap(
        MmapTarget::Fs {
            fs: &fs,
            dir: "/pmemcpy",
        },
        &comm,
    )
    .unwrap();

    // '/' in the id creates directories (§3).
    pmem.store_slice("fluid/velocity/u", &vec![1.0f64; 64])
        .unwrap();
    pmem.store_scalar("fluid/step", 9u64).unwrap();
    assert!(fs.exists("/pmemcpy/fluid/velocity/u"));
    assert_eq!(
        pmem.load_slice::<f64>("fluid/velocity/u").unwrap(),
        vec![1.0f64; 64]
    );
    assert_eq!(pmem.load_scalar::<u64>("fluid/step").unwrap(), 9);

    let mut keys = pmem.keys().unwrap();
    keys.sort();
    assert_eq!(
        keys,
        vec!["fluid/step".to_string(), "fluid/velocity/u".to_string()]
    );
    pmem.munmap().unwrap();
}

/// The WAL lives in the devdax pool, so the filesystem target has nowhere
/// to put it: rejected at `mmap`, and the handle stays unmapped.
#[test]
fn write_behind_on_an_fs_target_is_a_config_error() {
    let dev = devdax(16);
    let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
    let comm = mpi_sim::Comm::new(mpi_sim::World::new(Arc::clone(dev.machine()), 1), 0);
    let mut pmem = Pmem::with_options(Options::write_behind());
    let target = MmapTarget::Fs {
        fs: &fs,
        dir: "/pmemcpy",
    };
    assert!(matches!(
        pmem.mmap(target, &comm),
        Err(pmemcpy::PmemCpyError::Config(_))
    ));
    assert!(!pmem.is_mapped());
    assert!(!fs.exists("/pmemcpy"));
}

/// A batch may store one key twice; the later value wins on every target,
/// and the keys staged around the repeat all land. (Group formation in
/// `WriteBatch::commit` ends a group just before a key it already holds.)
#[test]
fn a_batch_that_stores_a_key_twice_keeps_the_later_value() {
    let check = |pmem: &mut Pmem, target: &str| {
        let (first, second) = (vec![1.0f64; 8], vec![2.0f64; 24]);
        let mut batch = pmem.batch();
        batch.store_scalar("before", 1u64).unwrap();
        batch.store_slice("twice", &first).unwrap();
        batch.store_scalar("between", 2u64).unwrap();
        batch.store_slice("twice", &second).unwrap();
        batch.store_scalar("after", 3u64).unwrap();
        batch.commit().unwrap_or_else(|e| panic!("{target}: {e}"));
        assert_eq!(pmem.load_slice::<f64>("twice").unwrap(), second, "{target}");
        for (key, v) in [("before", 1u64), ("between", 2), ("after", 3)] {
            assert_eq!(pmem.load_scalar::<u64>(key).unwrap(), v, "{target}");
        }
        // Drained (a no-op on the inline targets) and remapped, it is still
        // the later value.
        pmem.checkpoint().unwrap();
        assert_eq!(pmem.load_slice::<f64>("twice").unwrap(), second, "{target}");
        assert_eq!(pmem.keys().unwrap().len(), 4, "{target}");
        pmem.munmap().unwrap();
    };
    for (opts, target) in [
        (Options::default(), "DevDax inline"),
        (Options::write_behind(), "DevDax write-behind"),
    ] {
        let dev = devdax(16);
        let (mut pmem, _comm) = mapped_single(opts, &dev);
        check(&mut pmem, target);
    }
    let dev = devdax(16);
    let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
    let comm = mpi_sim::Comm::new(mpi_sim::World::new(Arc::clone(dev.machine()), 1), 0);
    let mut pmem = Pmem::new();
    let dir = "/pmemcpy";
    pmem.mmap(MmapTarget::Fs { fs: &fs, dir }, &comm).unwrap();
    check(&mut pmem, "Fs");
}

#[test]
fn errors_are_reported_not_panicked() {
    let dev = devdax(8);
    let (mut pmem, comm) = mapped_single(Options::default(), &dev);

    // Missing variable.
    assert!(matches!(
        pmem.load_scalar::<f64>("ghost"),
        Err(pmemcpy::PmemCpyError::NotFound(_))
    ));
    // Block store without alloc.
    assert!(pmem.store_block("noalloc", &[0f64; 4], &[0], &[4]).is_err());
    // Out-of-bounds block.
    pmem.alloc::<f64>("small", &[10]).unwrap();
    assert!(matches!(
        pmem.store_block("small", &[0f64; 8], &[5], &[8]),
        Err(pmemcpy::PmemCpyError::OutOfBounds { .. })
    ));
    // A block whose end wraps past u64::MAX is out of bounds too, not a
    // block that "ends" at 4.
    assert!(matches!(
        pmem.store_block("small", &[0f64; 8], &[u64::MAX - 3], &[8]),
        Err(pmemcpy::PmemCpyError::OutOfBounds { .. })
    ));
    // Dims whose product wraps to 0 do not describe an empty buffer — on the
    // store, the load, the batched and the region paths alike.
    let side = 1u64 << 32;
    pmem.alloc::<f64>("vast", &[side, side]).unwrap();
    let (zero, dims) = ([0u64, 0], [side, side]);
    let mut none = [0f64; 0];
    let mismatch = |r: pmemcpy::Result<()>| {
        assert!(
            matches!(r, Err(pmemcpy::PmemCpyError::ShapeMismatch { .. })),
            "{r:?}"
        )
    };
    mismatch(pmem.store_block("vast", &none, &zero, &dims));
    mismatch(pmem.batch().store_block("vast", &none, &zero, &dims));
    mismatch(pmem.load_block("vast", &mut none, &zero, &dims));
    mismatch(pmem.load_region("vast", &mut none, &zero, &dims));
    let mut reads = pmem.read_batch();
    mismatch(
        reads
            .load_block_into("vast", &mut none, &zero, &dims)
            .map(|_| ()),
    );
    drop(reads);
    // dtype mismatch.
    pmem.store_scalar("pi", 2.75f64).unwrap();
    assert!(matches!(
        pmem.load_scalar::<u64>("pi"),
        Err(pmemcpy::PmemCpyError::ShapeMismatch { .. })
    ));
    // Wrong-shaped load buffer.
    pmem.store_block("small", &[0f64; 5], &[0], &[5]).unwrap();
    let mut buf = vec![0f64; 3];
    assert!(pmem.load_block("small", &mut buf, &[0], &[5]).is_err());

    pmem.munmap().unwrap();
    // Use after munmap.
    assert!(matches!(
        pmem.load_scalar::<f64>("pi"),
        Err(pmemcpy::PmemCpyError::NotMapped)
    ));
    drop(comm);
}

#[test]
fn remove_drops_variable_and_dims() {
    let dev = devdax(8);
    let (mut pmem, _comm) = mapped_single(Options::default(), &dev);
    pmem.alloc::<f64>("tmp", &[8]).unwrap();
    pmem.store_block("tmp", &[1f64; 8], &[0], &[8]).unwrap();
    assert!(pmem.remove("tmp#block@0").unwrap());
    assert!(pmem.remove("tmp").unwrap() || !pmem.exists("tmp"));
    assert!(!pmem.exists("tmp#dims"));
    pmem.munmap().unwrap();
}

#[test]
fn map_sync_costs_more_virtual_time() {
    // Same workload under PMCPY-A and PMCPY-B: B must be slower.
    let run = |opts: Options| -> SimTime {
        let dev = devdax(32);
        let dev2 = Arc::clone(&dev);
        let times = run_world(Arc::clone(dev.machine()), 2, move |comm| {
            let mut pmem = Pmem::with_options(opts.clone());
            pmem.mmap(MmapTarget::DevDax(&dev2), &comm).unwrap();
            let data = vec![comm.rank() as f64; 1 << 16];
            pmem.store_slice(&format!("x{}", comm.rank()), &data)
                .unwrap();
            let t = pmem.now();
            pmem.munmap().unwrap();
            t
        });
        times.into_iter().fold(SimTime::ZERO, SimTime::max)
    };
    let a = run(Options::pmcpy_a());
    let b = run(Options::pmcpy_b());
    assert!(b > a, "MAP_SYNC must cost time: A={a} B={b}");
}

#[test]
fn data_survives_munmap_and_remap() {
    let dev = devdax(8);
    let (mut pmem, comm) = mapped_single(Options::default(), &dev);
    pmem.store_slice("persisted", &vec![7u64; 100]).unwrap();
    pmem.munmap().unwrap();

    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    assert_eq!(
        pmem.load_slice::<u64>("persisted").unwrap(),
        vec![7u64; 100]
    );
    pmem.munmap().unwrap();
}

/// `PersistentHashtable::quiesce` promises that a read-only session stays
/// at zero pool transactions. That has to hold on a pool persisted
/// mid-split too: lookups route through both directories, they do not
/// migrate the split along.
#[test]
fn a_read_only_session_on_a_mid_split_pool_runs_no_transaction() {
    use pmdk_sim::layout::{Geo, Superblock, TableHeader};
    let on_media = |dev: &PmemDevice| -> Geo {
        let header = pmdk_sim::doctor::root_hashtable_header(dev, &Superblock::read(dev)).unwrap();
        TableHeader::read(dev, header).unwrap().geo
    };
    let dev = devdax(8);
    let opts = Options {
        hashtable_buckets: 64,
        ..Options::default()
    };
    // The 34th key begins the split (2 x live > 64) and eight chunks
    // retire it, one per put: 36 keys leave it in flight.
    let (mut pmem, comm) = mapped_single(opts.clone(), &dev);
    let ids: Vec<String> = (0..36).map(|i| format!("k{i}")).collect();
    for (i, id) in ids.iter().enumerate() {
        pmem.store_scalar(id, i as u64).unwrap();
    }
    pmem.munmap().unwrap();
    let split = on_media(&dev);
    assert!(
        split.old_buckets == 64 && (1..64).contains(&split.cursor),
        "the pool must be persisted mid-split: {split:?}"
    );

    let registry = pmem_sim::MetricsRegistry::new();
    dev.machine().set_metrics(Arc::clone(&registry));
    let mut pmem = Pmem::with_options(opts);
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    let mounted = dev.machine().stats.snapshot();
    for (i, id) in ids.iter().enumerate() {
        assert_eq!(pmem.load_scalar::<u64>(id).unwrap(), i as u64);
    }
    let mut batch = pmem.read_batch();
    let handles: Vec<_> = ids
        .iter()
        .map(|id| batch.load_scalar::<u64>(id).unwrap())
        .collect();
    let mut loaded = batch.commit().unwrap();
    for (i, h) in handles.into_iter().enumerate() {
        assert_eq!(loaded.take_scalar(h), i as u64);
    }
    pmem.munmap().unwrap(); // nothing to fold either

    let session = dev.machine().stats.snapshot().delta_since(&mounted);
    assert_eq!(session.pool_txs, 0, "a load ran a pool transaction");
    assert_eq!(registry.snapshot().counter("ht.buckets_migrated"), 0);
    assert_eq!(on_media(&dev), split, "a load moved the split cursor");
}

#[test]
fn zero_staging_property_holds_on_store() {
    let dev = devdax(16);
    let (mut pmem, _comm) = mapped_single(Options::default(), &dev);
    let before = dev.machine().stats.snapshot();
    pmem.store_slice("big", &vec![1.5f64; 1 << 15]).unwrap();
    let delta = dev.machine().stats.snapshot().delta_since(&before);
    assert!(
        delta.pmem_bytes_written >= (1 << 18),
        "payload must hit PMEM"
    );
    assert_eq!(delta.dram_bytes_copied, 0, "no DRAM staging copies allowed");
    pmem.munmap().unwrap();
}

/// The serializer ⇄ mapping seam end to end, per format: a load reads each
/// record byte once and nothing past it, and a record is whole on the media
/// when `store` returns — the sink's window is stored before the persist,
/// not after it.
#[test]
fn a_record_is_read_once_and_is_durable_when_store_returns() {
    let small = [0xC0FFEEu64];
    let large: Vec<f64> = (0..4096).map(|i| i as f64 * 0.5).collect();
    for ser in ["bp4", "cereal", "capnp-lite", "raw"] {
        let dev = PmemDevice::new(Machine::chameleon(), 16 << 20, PersistenceMode::Tracked);
        let opts = Options {
            serializer: ser.into(),
            ..Options::default()
        };
        let (pmem, _comm) = mapped_single(opts.clone(), &dev);
        pmem.store_slice("small", &small).unwrap();
        pmem.store_slice("large", &large).unwrap();
        let records = ["small", "large"].map(|key| pmem.raw_record(key).unwrap());

        // Both keys sit in the shadow index, so the lookup reads no PMEM:
        // what a load reads is its record.
        let before = dev.machine().stats.snapshot();
        assert_eq!(pmem.load_slice::<u64>("small").unwrap(), small, "{ser}");
        assert_eq!(pmem.load_slice::<f64>("large").unwrap(), large, "{ser}");
        let delta = dev.machine().stats.snapshot().delta_since(&before);
        let stored: usize = records.iter().map(Vec::len).sum();
        assert_eq!(delta.pmem_bytes_read, stored as u64, "{ser}");
        assert_eq!(delta.dram_bytes_copied, 0, "{ser}");

        // Power cut with the session still mounted: only fenced lines stay.
        dev.crash();
        drop(pmem);
        pmemcpy::registry::release_pool(&dev);
        let (mut pmem, _comm) = mapped_single(opts, &dev);
        for (key, record) in ["small", "large"].iter().zip(&records) {
            assert_eq!(&pmem.raw_record(key).unwrap(), record, "{ser}: {key}");
        }
        assert_eq!(pmem.load_slice::<f64>("large").unwrap(), large, "{ser}");
        pmem.munmap().unwrap();
    }
}

#[test]
fn load_region_spans_multiple_blocks() {
    let dev = devdax(64);
    let dev2 = Arc::clone(&dev);
    run_world(Arc::clone(dev.machine()), 8, move |comm| {
        let decomp = workloads::BlockDecomp::new(&[16, 16, 16], 8);
        let (off, dims) = decomp.block(comm.rank() as u64);
        let block = workloads::generate_block(&decomp, 0, comm.rank() as u64);
        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev2), &comm).unwrap();
        if comm.rank() == 0 {
            pmem.alloc::<f64>("field", &[16, 16, 16]).unwrap();
        }
        comm.barrier();
        pmem.store_block("field", &block, &off, &dims).unwrap();
        comm.barrier();

        // Every rank reads a centred 8x8x8 box straddling all 8 blocks.
        let (roff, rdims) = ([4u64, 4, 4], [8u64, 8, 8]);
        let mut region = vec![0f64; 512];
        pmem.load_region("field", &mut region, &roff, &rdims)
            .unwrap();
        let g = &decomp.global_dims;
        for x in 0..8u64 {
            for y in 0..8u64 {
                for z in 0..8u64 {
                    let gl = ((roff[0] + x) * g[1] + (roff[1] + y)) * g[2] + (roff[2] + z);
                    let got = region[(x * 64 + y * 8 + z) as usize];
                    assert_eq!(got, workloads::element_value(0, gl), "at ({x},{y},{z})");
                }
            }
        }
        pmem.munmap().unwrap();
    });
}

#[test]
fn load_region_detects_uncovered_elements() {
    let dev = devdax(16);
    let (mut pmem, _comm) = mapped_single(Options::default(), &dev);
    pmem.alloc::<f64>("partial", &[8, 8]).unwrap();
    // Store only the left half.
    pmem.store_block("partial", &vec![1.0f64; 32], &[0, 0], &[8, 4])
        .unwrap();
    let mut region = vec![0f64; 64];
    let err = pmem
        .load_region("partial", &mut region, &[0, 0], &[8, 8])
        .unwrap_err();
    assert!(
        matches!(err, pmemcpy::PmemCpyError::OutOfBounds { .. }),
        "{err}"
    );
    // The covered half alone works.
    let mut half = vec![0f64; 32];
    pmem.load_region("partial", &mut half, &[0, 0], &[8, 4])
        .unwrap();
    assert!(half.iter().all(|&v| v == 1.0));
    pmem.munmap().unwrap();
}

#[test]
fn load_region_rejects_raw_serializer_and_bad_shapes() {
    let dev = devdax(16);
    let (mut pmem, _comm) = mapped_single(
        Options {
            serializer: "raw".into(),
            ..Options::default()
        },
        &dev,
    );
    pmem.alloc::<f64>("x", &[4, 4]).unwrap();
    let mut buf = vec![0f64; 4];
    assert!(matches!(
        pmem.load_region("x", &mut buf, &[0, 0], &[2, 2]),
        Err(pmemcpy::PmemCpyError::Config(_))
    ));
    pmem.munmap().unwrap();

    let (mut pmem, _comm) = mapped_single(Options::default(), &dev);
    pmem.alloc::<f64>("y", &[4, 4]).unwrap();
    pmem.store_block("y", &[0.5f64; 16], &[0, 0], &[4, 4])
        .unwrap();
    // Region out of global bounds.
    assert!(pmem.load_region("y", &mut buf, &[3, 3], &[2, 2]).is_err());
    // Buffer size mismatch.
    assert!(pmem.load_region("y", &mut buf, &[0, 0], &[3, 3]).is_err());
    // Wrong dtype.
    let mut ibuf = vec![0u32; 4];
    assert!(pmem.load_region("y", &mut ibuf, &[0, 0], &[2, 2]).is_err());
    pmem.munmap().unwrap();
}

#[test]
fn attributes_round_trip_and_enumerate() {
    let dev = devdax(8);
    let (mut pmem, _comm) = mapped_single(Options::default(), &dev);
    pmem.store_slice("T", &[300.0f64; 8]).unwrap();
    pmem.set_attr("T", "units", "kelvin").unwrap();
    pmem.set_attr("T", "source", "S3D step 12000").unwrap();
    assert_eq!(pmem.get_attr("T", "units").unwrap(), "kelvin");
    assert_eq!(
        pmem.attrs("T").unwrap(),
        vec!["source".to_string(), "units".to_string()]
    );
    // Overwrite.
    pmem.set_attr("T", "units", "celsius").unwrap();
    assert_eq!(pmem.get_attr("T", "units").unwrap(), "celsius");
    // Missing attribute errors.
    assert!(pmem.get_attr("T", "nope").is_err());
    pmem.munmap().unwrap();
}
