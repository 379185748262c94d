//! The ladder: each layer's primitives measured alone, bottom up, before any
//! composition is believed (the method of van Renen et al., *Persistent
//! Memory I/O Primitives*). A rung is a fixed-count loop over one public
//! function of one crate, timed on both clocks; the count, not a timer, ends
//! it, so the virtual-clock side repeats exactly.
//!
//! Every loop feeds its inputs and results through `black_box`, and every
//! count is large enough that the loop runs for tens of milliseconds.

use crate::layers::Values;
use mpi_sim::{run_world_mode, SchedMode};
use pmdk_sim::{PersistentHashtable, PersistentLog, PmemPool};
use pmem_sim::{Clock, Machine, PersistenceMode, PmemDevice};
use pserial::{Datatype, Serializer, SliceSource, VarMeta};
use simfs::{MountMode, SimFs};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Host and virtual nanoseconds per operation of one rung.
struct PerOp {
    host_ns: f64,
    sim_ns: f64,
}

/// Time `ops` operations issued by `body` against `clock`.
fn rung(clock: &Clock, ops: u64, body: impl FnOnce()) -> PerOp {
    let sim0 = clock.now().as_nanos();
    let t = Instant::now();
    body();
    let host = t.elapsed().as_nanos() as f64;
    PerOp {
        host_ns: host / ops as f64,
        sim_ns: (clock.now().as_nanos() - sim0) as f64 / ops as f64,
    }
}

fn device(bytes: usize, mode: PersistenceMode) -> Arc<PmemDevice> {
    crate::workloads::fresh_device(pmem_sim::MachineConfig::chameleon_skylake(), bytes, mode).1
}

fn set_both(v: &mut Values, prefix: &str, r: &PerOp) {
    v.set(&format!("{prefix}.host_ns"), r.host_ns);
    v.set(&format!("{prefix}.sim_ns"), r.sim_ns);
}

/// Run every rung.
pub fn run(v: &mut Values) {
    pmem_sim_rungs(v);
    pmdk_sim_rungs(v);
    pserial_rungs(v);
    simfs_rungs(v);
    mpi_sim_rungs(v);
}

fn pmem_sim_rungs(v: &mut Values) {
    // One charge on an ungated clock: the floor under every other number.
    let machine = Machine::chameleon();
    let clock = Clock::new();
    let n = 2_000_000u64;
    let r = rung(&clock, n, || {
        for _ in 0..n {
            machine.charge_pmem_write_meta(black_box(&clock), black_box(64));
        }
    });
    v.set("pmem_sim.charge.host_ns", r.host_ns);

    let page = vec![0xa5u8; 4096];
    let slots = (32usize << 20) / 4096;
    for (mode, name) in [
        (PersistenceMode::Fast, "pmem_sim.write_persist_4k"),
        (
            PersistenceMode::Tracked,
            "pmem_sim.write_persist_4k_tracked",
        ),
    ] {
        let dev = device(32 << 20, mode);
        let clock = Clock::new();
        let n = 40_000u64;
        let r = rung(&clock, n, || {
            for i in 0..n as usize {
                let off = (i % slots) * 4096;
                dev.write(&clock, off, black_box(&page));
                dev.persist(&clock, off, 4096);
            }
        });
        v.set(&format!("{name}.host_ns"), r.host_ns);
        if mode == PersistenceMode::Fast {
            v.set(&format!("{name}.sim_ns"), r.sim_ns);
        }
    }

    let dev = device(32 << 20, PersistenceMode::Fast);
    let clock = Clock::new();
    let mut buf = vec![0u8; 64 << 10];
    let slots = (32usize << 20) / buf.len();
    let n = 10_000u64;
    let r = rung(&clock, n, || {
        for i in 0..n as usize {
            dev.read(&clock, (i % slots) * buf.len(), black_box(&mut buf));
        }
    });
    set_both(v, "pmem_sim.read_64k", &r);
}

/// Keys the hashtable rungs grow the table to (from 4096 buckets, so five
/// directory splits are part of the put rung).
const HT_KEYS: u64 = 131_072;

fn pmdk_sim_rungs(v: &mut Values) {
    let dev = device(96 << 20, PersistenceMode::Fast);
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, Arc::clone(&dev), "ladder").expect("create pool");

    let cell = pool.alloc(&clock, 4096).expect("alloc");
    let word = [0x5au8; 64];
    let n = 20_000u64;
    let r = rung(&clock, n, || {
        for _ in 0..n {
            pool.tx(&clock, |tx| tx.set(cell, black_box(&word)))
                .expect("tx set");
        }
    });
    set_both(v, "pmdk_sim.tx_set64", &r);

    // One allocator pass carving 64 blocks of 64 bytes; per pass.
    let sizes = [64u64; 64];
    let n = 2_000u64;
    let r = rung(&clock, n, || {
        for _ in 0..n {
            black_box(
                pool.alloc_many(&clock, black_box(&sizes))
                    .expect("alloc_many"),
            );
        }
    });
    set_both(v, "pmdk_sim.alloc_many64", &r);

    let log = PersistentLog::create(&clock, &pool, 48 << 20).expect("create log");
    let record = vec![0x3cu8; 4096];
    let n = 10_000u64;
    let r = rung(&clock, n, || {
        for _ in 0..n {
            log.append(&clock, black_box(&record)).expect("append");
        }
    });
    set_both(v, "pmdk_sim.log_append_4k", &r);
    drop((log, pool));

    // The hashtable rungs get a device of their own, sized like a storm's.
    let dev = device((HT_KEYS * 384 + (64 << 20)) as usize, PersistenceMode::Fast);
    let clock = Clock::new();
    let pool = PmemPool::create(&clock, Arc::clone(&dev), "ladder").expect("create pool");
    let ht = PersistentHashtable::create(&clock, &pool, 4096).expect("create hashtable");
    let header = ht.header_offset();
    let keys: Vec<String> = (0..HT_KEYS).map(|i| format!("ladder/k{i:08}")).collect();
    let r = rung(&clock, HT_KEYS, || {
        for group in keys.chunks(64) {
            let reqs: Vec<(&[u8], u64)> = group.iter().map(|k| (k.as_bytes(), 8)).collect();
            black_box(
                ht.put_reserve_many(&clock, &reqs)
                    .expect("put_reserve_many"),
            );
        }
    });
    set_both(v, "pmdk_sim.ht_put_many64", &r);

    let get_all = |ht: &PersistentHashtable| {
        rung(&clock, HT_KEYS, || {
            for group in keys.chunks(64) {
                let ks: Vec<&[u8]> = group.iter().map(|k| k.as_bytes()).collect();
                let found = ht.get_ref_many(&clock, &ks);
                assert!(found.iter().all(Option::is_some), "ladder key lost");
                black_box(found);
            }
        })
    };
    let r = get_all(&ht);
    set_both(v, "pmdk_sim.ht_get_many64", &r);
    ht.set_shadow_enabled(false);
    let r = get_all(&ht);
    v.set("pmdk_sim.ht_get_many64_noshadow.sim_ns", r.sim_ns);
    ht.quiesce(&clock).expect("quiesce");
    drop((ht, pool));

    // Restart at 131 072 entries: open the pool, attach the table, warm the
    // shadow index with one full scan.
    let clock = Clock::new();
    let r = rung(&clock, 1, || {
        let pool = PmemPool::open(&clock, Arc::clone(&dev), "ladder").expect("open pool");
        let ht = PersistentHashtable::open(&clock, &pool, header).expect("open hashtable");
        assert_eq!(ht.rebuild_shadow(&clock), HT_KEYS);
        black_box(ht);
    });
    v.set("pmdk_sim.pool_open.host_ms", r.host_ns / 1e6);
    v.set("pmdk_sim.pool_open.sim_ms", r.sim_ns / 1e6);
}

fn pserial_rungs(v: &mut Values) {
    let bp4: &dyn Serializer = pserial::by_name("bp4").expect("bp4 is registered");
    let elems = 128u64 << 10; // 1 MiB of f64
    let meta = VarMeta::local_array("ladder", Datatype::F64, &[elems]);
    let payload: Vec<u8> = (0..elems)
        .flat_map(|i| (i as f64 * 0.5).to_le_bytes())
        .collect();
    let kib = payload.len() as f64 / 1024.0;
    let mut wire = Vec::with_capacity(bp4.serialized_len(&meta, payload.len() as u64) as usize);
    let n = 100u32;
    let t = Instant::now();
    for _ in 0..n {
        wire.clear();
        bp4.write_var(black_box(&meta), black_box(&payload), &mut wire)
            .expect("bp4 write");
        black_box(&wire);
    }
    let write_ns = t.elapsed().as_nanos() as f64 / n as f64;
    v.set("pserial.bp4_write.host_ns_per_kib", write_ns / kib);

    let mut dst = vec![0u8; payload.len()];
    let t = Instant::now();
    for _ in 0..n {
        let mut src = SliceSource::new(black_box(&wire));
        let hdr = bp4.read_header(&mut src).expect("bp4 header");
        bp4.read_payload(&mut src, &mut dst).expect("bp4 payload");
        black_box((&hdr, &dst));
    }
    let read_ns = t.elapsed().as_nanos() as f64 / n as f64;
    assert_eq!(dst, payload, "bp4 round trip");
    v.set("pserial.bp4_read.host_ns_per_kib", read_ns / kib);
}

fn simfs_rungs(v: &mut Values) {
    let dev = device(64 << 20, PersistenceMode::Fast);
    let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
    let clock = Clock::new();
    let fd = fs.create(&clock, "/ladder").expect("create");
    let chunk = vec![0x77u8; 64 << 10];
    let slots = (32u64 << 20) / chunk.len() as u64;
    let n = 10_000u64;
    let r = rung(&clock, n, || {
        for i in 0..n {
            fs.write_at(
                &clock,
                fd,
                (i % slots) * chunk.len() as u64,
                black_box(&chunk),
            )
            .expect("write_at");
        }
    });
    set_both(v, "simfs.dax_write_64k", &r);
}

/// Every rank charges `per_rank` equal amounts: with more than one rank each
/// charge leaves another rank earliest, so each charge is a token hand-off.
fn charge_world(ranks: usize, per_rank: u64) -> f64 {
    let t = Instant::now();
    run_world_mode(
        Machine::chameleon(),
        ranks,
        SchedMode::Deterministic,
        move |comm| {
            for _ in 0..per_rank {
                comm.machine()
                    .charge_pmem_write_meta(black_box(comm.clock()), black_box(64));
            }
        },
    );
    t.elapsed().as_nanos() as f64 / (ranks as u64 * per_rank) as f64
}

fn mpi_sim_rungs(v: &mut Values) {
    v.set("mpi_sim.charge_solo.host_ns", charge_world(1, 1_000_000));
    v.set("mpi_sim.handoff8.host_ns", charge_world(8, 8_000));
    v.set("mpi_sim.handoff24.host_ns", charge_world(24, 2_500));

    let rounds = 1_000u64;
    let t = Instant::now();
    let ends = run_world_mode(
        Machine::chameleon(),
        8,
        SchedMode::Deterministic,
        move |comm| {
            for _ in 0..rounds {
                comm.barrier();
            }
            comm.now().as_nanos()
        },
    );
    let host_us = t.elapsed().as_nanos() as f64 / 1e3 / rounds as f64;
    let sim_us = ends.into_iter().max().unwrap_or(0) as f64 / 1e3 / rounds as f64;
    v.set("mpi_sim.barrier8.host_us", host_us);
    v.set("mpi_sim.barrier8.sim_us", sim_us);

    let worlds = 40u32;
    let t = Instant::now();
    for _ in 0..worlds {
        run_world_mode(Machine::chameleon(), 24, SchedMode::Deterministic, |comm| {
            black_box(comm.rank())
        });
    }
    v.set(
        "mpi_sim.spawn_join24.host_us",
        t.elapsed().as_nanos() as f64 / 1e3 / worlds as f64,
    );
}
