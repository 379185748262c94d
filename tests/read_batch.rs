//! Batched zero-copy read pipeline: group lookups, the volatile mirror of
//! the chains, and single-key gets under the stripe lock.
//!
//! 1. a `ReadBatch` must return byte-identical data to the per-key path,
//!    on both layouts;
//! 2. the mirror takes each committed splice: a lookup after a put, an
//!    overwrite or a remove is answered from DRAM and sees its result;
//! 3. gets take their key's stripe mutex, the one writers take — readers
//!    interleaved with writers stay consistent under both the deterministic
//!    and the free-threaded scheduler, never deadlock, and under the
//!    deterministic one reproduce their virtual times exactly;
//! 4. the figure-7 read cell stays bit-reproducible with the cache on;
//! 5. the single-pass chain walk charges at most 3 metadata reads per
//!    resolved key (the old stat+load path charged twice that);
//! 6. `stream_raw` stages nothing in DRAM.

use baselines::PmemcpyLib;
use mpi_sim::{run_world_mode, Comm, SchedMode, World};
use pmem_sim::{
    Machine, MachineConfig, MetricsRegistry, MetricsSnapshot, PersistenceMode, PmemDevice,
};
use pmemcpy::{MmapTarget, Pmem, PmemCpyError};
use pmemcpy_bench::{run_cell, CellConfig, Direction, Outcome, RunReport};
use std::sync::Arc;

fn mapped_single() -> (Pmem, Comm, Arc<PmemDevice>) {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 64 << 20, PersistenceMode::Fast);
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    (pmem, comm, dev)
}

fn write_reference_data(pmem: &Pmem) {
    pmem.store_scalar("step", 7u64).unwrap();
    let slice: Vec<f64> = (0..500).map(|i| i as f64 * 0.25).collect();
    pmem.store_slice("v", &slice).unwrap();
    pmem.alloc::<f64>("g", &[64]).unwrap();
    let block: Vec<f64> = (0..64).map(|i| i as f64 - 32.0).collect();
    pmem.store_block("g", &block, &[0], &[64]).unwrap();
    pmem.set_attr("v", "unit", "kelvin").unwrap();
}

/// One `ReadBatch` commit returns exactly the bytes the per-key loads
/// return — scalars, slices, blocks, attrs, dims — on the default layout.
#[test]
fn batched_and_per_key_reads_are_byte_identical() {
    let (mut pmem, _comm, _dev) = mapped_single();
    write_reference_data(&pmem);

    // Per-key reference.
    let step = pmem.load_scalar::<u64>("step").unwrap();
    let v = pmem.load_slice::<f64>("v").unwrap();
    let mut g = vec![0f64; 64];
    pmem.load_block("g", &mut g, &[0], &[64]).unwrap();
    let (dtype, dims) = pmem.load_dims("g").unwrap();
    let unit = pmem.get_attr("v", "unit").unwrap();
    assert_eq!(step, 7);
    assert_eq!(dtype, pserial::Datatype::F64);
    assert_eq!(dims, vec![64]);
    assert_eq!(unit, "kelvin");

    // Same loads, one group lookup.
    let mut batch = pmem.read_batch();
    let h_step = batch.load_scalar::<u64>("step").unwrap();
    let h_v = batch.load_slice::<f64>("v").unwrap();
    let mut g2 = vec![0f64; 64];
    let h_g = batch.load_block_into("g", &mut g2, &[0], &[64]).unwrap();
    let mut v3 = vec![0f64; v.len()];
    batch.load_slice_into("v", &mut v3).unwrap();
    assert_eq!(batch.len(), 4);
    let mut results = batch.commit().unwrap();
    assert_eq!(results.take_scalar(h_step), step);
    assert_eq!(results.header(&h_g).payload_len, 64 * 8);
    let v2 = results.take(h_v);
    assert_eq!(v2, v);
    assert_eq!(v3, v);
    assert_eq!(g2, g);
    pmem.munmap().unwrap();
}

/// The same equivalence on the hierarchical (one file per variable) layout,
/// which routes `load_many` through per-file mappings.
#[test]
fn batched_reads_match_per_key_on_the_hierarchical_layout() {
    use simfs::{MountMode, SimFs};
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 64 << 20, PersistenceMode::Fast);
    let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let mut pmem = Pmem::new();
    pmem.mmap(
        MmapTarget::Fs {
            fs: &fs,
            dir: "/out",
        },
        &comm,
    )
    .unwrap();
    let slice: Vec<f64> = (0..256).map(|i| (i * i) as f64).collect();
    pmem.store_slice("nested/v", &slice).unwrap();
    pmem.store_scalar("s", -3i64).unwrap();

    let per_key = pmem.load_slice::<f64>("nested/v").unwrap();
    let mut batch = pmem.read_batch();
    let h_v = batch.load_slice::<f64>("nested/v").unwrap();
    let h_s = batch.load_scalar::<i64>("s").unwrap();
    let mut results = batch.commit().unwrap();
    assert_eq!(results.take(h_v), per_key);
    assert_eq!(results.take_scalar(h_s), -3);

    // A missing key fails the whole batch without leaking mappings; the
    // next lookup still works.
    let mut batch = pmem.read_batch();
    let _ = batch.load_scalar::<i64>("missing").unwrap();
    assert!(matches!(batch.commit(), Err(PmemCpyError::NotFound(_))));
    assert_eq!(pmem.load_scalar::<i64>("s").unwrap(), -3);
    pmem.munmap().unwrap();
}

/// The mirror of the chains takes every committed splice: a lookup right
/// after a put, after an overwrite and after a remove is answered from
/// DRAM, and always sees the post-mutation state.
#[test]
fn shadow_index_hits_and_invalidates_on_overwrite_and_remove() {
    let machine = Machine::chameleon();
    let registry = MetricsRegistry::new();
    assert!(machine.set_metrics(Arc::clone(&registry)));
    let dev = PmemDevice::new(Arc::clone(&machine), 64 << 20, PersistenceMode::Fast);
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();

    pmem.store_slice("v", &[1.0f64, 2.0]).unwrap();
    let s0 = registry.snapshot();
    assert_eq!(pmem.load_slice::<f64>("v").unwrap(), vec![1.0, 2.0]);
    let s1 = registry.snapshot();
    assert!(
        s1.counter("shadow.hits") > s0.counter("shadow.hits"),
        "a lookup right after a put must hit the write-through shadow"
    );
    assert_eq!(
        s1.counter("get.lookup.pool_reads"),
        s0.counter("get.lookup.pool_reads"),
        "a shadow hit must not touch the pool"
    );

    // An overwrite is spliced into the mirror once it committed; the read
    // sees the new data.
    pmem.store_slice("v", &[9.0f64, 8.0]).unwrap();
    assert_eq!(pmem.load_slice::<f64>("v").unwrap(), vec![9.0, 8.0]);

    // A remove unlinks it from the mirror; the lookup misses without a walk.
    assert!(pmem.remove("v").unwrap());
    assert!(matches!(
        pmem.load_slice::<f64>("v"),
        Err(PmemCpyError::NotFound(_))
    ));
    let s3 = registry.snapshot();
    let hits = |a: &MetricsSnapshot, b: &MetricsSnapshot| {
        b.counter("shadow.hits") - a.counter("shadow.hits")
    };
    assert_eq!(
        hits(&s1, &s3),
        2 * hits(&s0, &s1),
        "both loads answered from the mirror"
    );
    assert_eq!(s3.counter("shadow.misses"), s0.counter("shadow.misses"));
    assert_eq!(
        s3.counter("get.lookup.pool_reads"),
        s0.counter("get.lookup.pool_reads"),
        "an answer from the mirror must not touch the pool"
    );
    pmem.munmap().unwrap();
}

/// Readers interleaved with a hot writer on the same stripes stay
/// consistent under both scheduler modes: a get holds its stripe for the
/// whole lookup, so it never sees a chain mid-splice. Blocking readers must
/// neither deadlock (the run returns) nor make virtual time depend on who
/// won a stripe (two deterministic runs agree rank by rank).
#[test]
fn concurrent_gets_stay_consistent_under_both_sched_modes() {
    let run = |mode: SchedMode| {
        let machine = Machine::chameleon();
        let dev = PmemDevice::new(Arc::clone(&machine), 64 << 20, PersistenceMode::Fast);
        let dev2 = Arc::clone(&dev);
        run_world_mode(Arc::clone(&machine), 4, mode, move |comm| {
            let mut pmem = Pmem::new();
            pmem.mmap(MmapTarget::DevDax(&dev2), &comm).unwrap();
            if comm.rank() == 0 {
                for k in 0..8 {
                    pmem.store_slice(&format!("stable{k}"), &[k as f64; 32])
                        .unwrap();
                }
            }
            comm.barrier();
            if comm.rank() == 0 {
                // Hot writer: keeps mutating its own key, taking stripes
                // the readers need.
                for round in 0..40 {
                    pmem.store_slice("hot", &[round as f64; 16]).unwrap();
                }
            } else {
                for _ in 0..20 {
                    for k in 0..8 {
                        let v = pmem.load_slice::<f64>(&format!("stable{k}")).unwrap();
                        assert_eq!(v, vec![k as f64; 32], "torn read under {mode:?}");
                    }
                }
            }
            comm.barrier();
            pmem.munmap().unwrap();
            comm.now()
        })
    };
    assert_eq!(
        run(SchedMode::Deterministic),
        run(SchedMode::Deterministic),
        "per-rank virtual times differ across deterministic runs"
    );
    run(SchedMode::FreeThreaded);
}

/// The figure-7 read cell is bit-reproducible with the mirror and batched
/// gets on: identical virtual times, counters, and BENCH JSON.
#[test]
fn read_cell_bench_report_is_bit_reproducible_with_cache_on() {
    let lib = PmemcpyLib::variant_a();
    let cfg = CellConfig::paper_on(8, 2 << 20, MachineConfig::chameleon_skylake());
    let run = || {
        run_cell(
            &lib,
            Direction::Read,
            &cfg,
            None,
            Some(MetricsRegistry::new()),
        )
    };
    let (a, b) = (run(), run());
    assert_eq!(a.mismatches, 0, "read back corrupted data");
    assert_eq!(a.time, b.time, "virtual time differs across runs");
    assert_eq!(a.stats, b.stats, "counters differ across runs");
    let json = |c: &pmemcpy_bench::CellResult| {
        RunReport {
            name: "repro".into(),
            real_bytes: 2 << 20,
            rows: vec![Outcome {
                key: String::new(),
                cells: vec![c.clone()],
                storm: None,
            }],
        }
        .to_json()
    };
    assert_eq!(json(&a), json(&b), "BENCH JSON differs across runs");
}

/// The single-pass chain walk: with the shadow cold (a reopened pool, so
/// every first lookup walks the persistent chain), resolving a key charges
/// at most 3 pool metadata reads — bucket head, one combined entry header,
/// key bytes. A header lookup followed by a separate payload lookup would
/// walk twice, with 3 reads per hop each.
#[test]
fn cold_lookups_charge_at_most_three_pool_reads_per_key() {
    const N: usize = 32;
    let machine = Machine::chameleon();
    let registry = MetricsRegistry::new();
    assert!(machine.set_metrics(Arc::clone(&registry)));
    let dev = PmemDevice::new(Arc::clone(&machine), 64 << 20, PersistenceMode::Fast);
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    for i in 0..N {
        pmem.store_slice(&format!("var{i}"), &[i as f64; 128])
            .unwrap();
    }
    // Puts write through to the shadow; a remount reopens the pool, which
    // leaves the cache cold.
    pmem.munmap().unwrap();
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    let before = registry.snapshot();
    for i in 0..N {
        let v = pmem.load_slice::<f64>(&format!("var{i}")).unwrap();
        assert_eq!(v[0], i as f64);
    }
    let after = registry.snapshot();
    let pool_reads =
        after.counter("get.lookup.pool_reads") - before.counter("get.lookup.pool_reads");
    assert!(
        pool_reads <= (3 * N) as u64,
        "chain walk charged {pool_reads} pool reads for {N} keys (> 3/key)"
    );
    assert!(pool_reads > 0, "cold lookups must walk the pool");
    pmem.munmap().unwrap();
}

/// `stream_raw` borrows chunks straight from the mapping: an entire raw
/// record drain copies zero bytes through DRAM staging.
#[test]
fn stream_raw_stages_nothing_in_dram() {
    let (mut pmem, _comm, dev) = mapped_single();
    let payload: Vec<f64> = (0..4096).map(|i| i as f64).collect();
    pmem.store_slice("big", &payload).unwrap();
    let before = dev.machine().stats.snapshot();
    let raw = pmem.raw_record("big").unwrap();
    let after = dev.machine().stats.snapshot();
    assert!(raw.len() >= 4096 * 8, "raw record shorter than its payload");
    assert_eq!(
        after.dram_bytes_copied, before.dram_bytes_copied,
        "stream_raw staged bytes through DRAM"
    );
    assert!(
        after.pmem_bytes_read > before.pmem_bytes_read,
        "stream_raw must still charge the PMEM read"
    );
    pmem.munmap().unwrap();
}

/// Group lookups are never slower than per-key gets: same data, same
/// machine, batched restart step finishes no later in virtual time.
#[test]
fn batched_reads_are_never_slower_than_per_key() {
    let elapsed = |use_batch: bool| {
        let (mut pmem, comm, dev) = mapped_single();
        for v in 0..12 {
            pmem.store_slice(&format!("var{v}"), &[v as f64; 2048])
                .unwrap();
        }
        // Remount so both sides resolve every key from a cold shadow.
        pmem.munmap().unwrap();
        pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
        let t0 = comm.now();
        if use_batch {
            let mut batch = pmem.read_batch();
            let handles: Vec<_> = (0..12)
                .map(|v| batch.load_slice::<f64>(&format!("var{v}")).unwrap())
                .collect();
            let mut results = batch.commit().unwrap();
            for (v, h) in handles.into_iter().enumerate() {
                assert_eq!(results.take(h)[0], v as f64);
            }
        } else {
            for v in 0..12 {
                assert_eq!(
                    pmem.load_slice::<f64>(&format!("var{v}")).unwrap()[0],
                    v as f64
                );
            }
        }
        let dt = comm.now() - t0;
        pmem.munmap().unwrap();
        dt
    };
    let batched = elapsed(true);
    let per_key = elapsed(false);
    assert!(
        batched <= per_key,
        "batched restart step slower than per-key: {batched:?} > {per_key:?}"
    );
}
