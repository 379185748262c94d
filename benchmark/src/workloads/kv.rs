//! `kv_mixed`: one rank, a `PersistenceMode::Tracked` device, a seeded
//! stream of 45 % `store_slice` (64 B – 16 KiB, overwrites included), 50 %
//! `load_slice`, 5 % `remove` — then the crash idiom of
//! `tests/crash_recovery.rs` and a check of every key.
//!
//! With no second rank no charge ever hands the scheduler token over, so this
//! is the scheduler-bypass control for host time. It is also the only
//! workload with overwrites, removes, free-list reuse, shadow-index
//! invalidation, the `DirtyBitmap`, and crash recovery.

use super::{fresh_device, observe, reopen, timed_world, IterCfg, Iteration, Scale, Tally};
use crate::gen::{key_prefix, KvOp, KvSpec, KvStream, ValuePool};
use crate::spans::Call;
use pmem_sim::{MachineConfig, PersistenceMode};
use pmemcpy::{registry, MmapTarget, Options, Pmem};
use std::sync::Arc;
use std::time::Instant;

/// 18 000 stores are four rounds over the 4500 keys, so every seed stores the
/// same bytes (see [`KvSpec::stream`]).
pub fn spec(scale: Scale) -> KvSpec {
    match scale {
        Scale::Full => KvSpec {
            keys: 4500,
            ops: 40_000,
            min_len: 64,
            max_len: 16 << 10,
        },
        Scale::Selfcheck => KvSpec {
            keys: 450,
            ops: 4000,
            min_len: 64,
            max_len: 16 << 10,
        },
    }
}

/// The device: a few times the ~13 MB live set, so the heap never fills, and
/// small enough that `crash()` (a copy of the whole durable image) stays
/// around a tenth of a second.
const DEVICE_BYTES: usize = 128 << 20;

struct Inputs {
    names: Vec<String>,
    stream: KvStream,
    pool: ValuePool,
}

/// One iteration with a clean close.
pub fn run(cfg: &IterCfg) -> Iteration {
    run_inner(cfg, false)
}

/// The same stream, but instead of `munmap` the power fails: `device.crash()`
/// drops every unflushed line, the handle is dropped, the interned pool
/// released. The reopen that follows is recovery, and `reopen_sim_ns` its
/// cost. Run once per process, after the last measured iteration.
pub fn run_crash(cfg: &IterCfg) -> Iteration {
    run_inner(cfg, true)
}

fn run_inner(cfg: &IterCfg, crash: bool) -> Iteration {
    let mut it = Iteration::default();
    let setup = Instant::now();
    let spec = spec(cfg.scale);
    let opts = Options::default();
    let (machine, device) = fresh_device(
        MachineConfig::chameleon_skylake(),
        DEVICE_BYTES,
        PersistenceMode::Tracked,
    );
    let t = Instant::now();
    let prefix = key_prefix(cfg.seed);
    let inputs = Arc::new(Inputs {
        names: (0..spec.keys)
            .map(|k| format!("{prefix}/kv/{k:06}"))
            .collect(),
        stream: spec.stream(cfg.seed),
        pool: ValuePool::new(cfg.seed, spec.max_len),
    });
    it.generate_host_s = t.elapsed().as_secs_f64();
    it.setup_host_s = setup.elapsed().as_secs_f64();

    let registry = observe(&machine, cfg);
    let (dev, rank_opts, rank_inputs) = (Arc::clone(&device), opts.clone(), Arc::clone(&inputs));
    let world = timed_world(&machine, 1, cfg, move |comm, rec| {
        let mut tally = Tally::new(0u64);
        let mut pmem = Pmem::with_options(rank_opts.clone());
        let mapped = rec.time(Call::Mmap, || pmem.mmap(MmapTarget::DevDax(&dev), comm));
        if tally.call("mmap", mapped).is_none() {
            return tally;
        }
        play(&pmem, &rank_inputs, rec, &mut tally);
        if crash {
            dev.crash();
            drop(pmem);
            registry::release_pool(&dev);
        } else {
            rec.time(Call::Barrier, || comm.barrier());
            let r = rec.time(Call::Munmap, || pmem.munmap());
            tally.call("munmap", r);
        }
        tally
    });
    it.payload_bytes = world.into_timed_phase(&mut it).into_iter().sum();
    it.metrics = registry.map(|r| r.snapshot());
    it.timed_ops = inputs.stream.ops.len() as u64;

    let live = &inputs.stream.live;
    it.live_payload_bytes = live.iter().flatten().map(|&(_, len)| len as u64).sum();
    let expected = live.iter().flatten().count() as u64;
    let mut verify_host_s = 0.0;
    let shape = reopen(&device, &opts, &mut it, |pmem, it| {
        let t = Instant::now();
        verify_all(pmem, &inputs, it);
        verify_host_s = t.elapsed().as_secs_f64();
    });
    it.verify_host_s = verify_host_s;
    if let Some(shape) = shape {
        it.check(shape.entries == expected, || {
            format!("hashtable holds {} keys, {expected} live", shape.entries)
        });
    }
    it
}

/// Issue the op stream; returns the payload bytes moved through `tally.out`.
fn play(pmem: &Pmem, inputs: &Inputs, rec: &mut crate::spans::Recorder, tally: &mut Tally<u64>) {
    for op in &inputs.stream.ops {
        match *op {
            KvOp::Store { key, version, len } => {
                let value = inputs.pool.value(key, version, len);
                let r = rec.time(Call::Put, || {
                    pmem.store_slice::<u8>(&inputs.names[key as usize], value)
                });
                tally.call("store_slice", r);
                tally.out += len as u64;
            }
            KvOp::Load { key, version, len } => {
                let r = rec.time(Call::Get, || {
                    pmem.load_slice::<u8>(&inputs.names[key as usize])
                });
                if let Some(got) = tally.call("load_slice", r) {
                    tally.attempted += 1;
                    if got != inputs.pool.value(key, version, len) {
                        tally
                            .failures
                            .push(format!("key {key} v{version}: loaded bytes differ"));
                    }
                }
                tally.out += len as u64;
            }
            KvOp::Remove { key } => {
                let r = rec.time(Call::Remove, || pmem.remove(&inputs.names[key as usize]));
                if tally.call("remove", r) == Some(false) {
                    tally
                        .failures
                        .push(format!("key {key}: remove of a live key found nothing"));
                }
            }
        }
    }
}

/// Every live key byte-identical to its last acknowledged store, every
/// removed key absent.
fn verify_all(pmem: &Pmem, inputs: &Inputs, it: &mut Iteration) {
    for (key, state) in inputs.stream.live.iter().enumerate() {
        let name = &inputs.names[key];
        match *state {
            Some((version, len)) => {
                let want = inputs.pool.value(key as u32, version, len);
                let got = pmem.load_slice::<u8>(name);
                it.check(got.as_deref().is_ok_and(|g| g == want), || {
                    format!(
                        "key {key} v{version} after reopen: {}",
                        match &got {
                            Ok(_) => "bytes differ".to_string(),
                            Err(e) => e.to_string(),
                        }
                    )
                });
            }
            None => it.check(!pmem.exists(name), || {
                format!("key {key} was removed (or never stored) but exists after reopen")
            }),
        }
    }
}
