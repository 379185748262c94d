//! `storm_inline` / `storm_wb`: the key-creation storm — 8 ranks minting
//! fresh 8-byte keys in 64-key `WriteBatch::commit` groups, then reading every
//! 97th key back.
//!
//! The two are the same op stream through the two durability modes of the
//! same `core` API, and they stress opposite layers. Inline, every key costs
//! ~15 clock charges in `pmdk_sim` tx/alloc/hashtable (directory splits
//! included), each charge a scheduler hand-off, so `mpi_sim::sched` dominates
//! host time. Write-behind, a group is one WAL append plus a DRAM front-index
//! upsert and the `CKPT_LANE` drains it at `munmap`: few charges, so the
//! scheduler is bypassed and `core::write_behind` + `PersistentLog` are what
//! is measured.

use super::{fresh_device, observe, reopen, timed_world, IterCfg, Iteration, Scale, Tally};
use crate::gen::key_prefix;
use crate::spans::Call;
use pmem_sim::{MachineConfig, PersistenceMode};
use pmemcpy::{MmapTarget, Options, Pmem};
use std::sync::Arc;
use std::time::Instant;
use workloads::StormSpec;

pub const RANKS: u64 = 8;
/// Keys per commit group (`pmemcpy::batch::MAX_GROUP_KEYS`).
const GROUP: usize = 64;
/// Every `SAMPLE`-th key of a rank is read back, staggered by rank.
const SAMPLE: u64 = 97;
const VALUE_BYTES: u64 = 8;
/// The design bound on the longest hashtable chain of a settled table.
const MAX_CHAIN: u64 = 8;

/// Keys per rank. Inline storms run at ~18 k keys/s of host time (hand-off
/// bound), write-behind ones at ~115 k keys/s, so the write-behind storm is
/// four times larger for a similar run length — and large enough (1024
/// groups) for a p99 of commit latency.
pub fn keys_per_rank(write_behind: bool, scale: Scale) -> u64 {
    match (scale, write_behind) {
        (Scale::Full, false) => 2048,
        (Scale::Full, true) => 8192,
        (Scale::Selfcheck, _) => 512,
    }
}

fn options(write_behind: bool) -> Options {
    if write_behind {
        Options::write_behind()
    } else {
        Options::default()
    }
}

/// One logical rank's generated inputs.
struct RankInput {
    rank: u64,
    keys: Vec<String>,
    values: Vec<Vec<u8>>,
}

/// One iteration of a storm.
pub fn run(write_behind: bool, cfg: &IterCfg) -> Iteration {
    let mut it = Iteration::default();
    let setup = Instant::now();
    let spec = StormSpec::new(RANKS, keys_per_rank(write_behind, cfg.scale), VALUE_BYTES);
    let opts = options(write_behind);
    // Payloads are tiny; the device is sized by per-key metadata (entry
    // header + key + serialized value + directory growth headroom).
    let dev_size = (spec.total_keys() * 384 + (64 << 20)) as usize;
    let (machine, device) = fresh_device(
        MachineConfig::chameleon_skylake(),
        dev_size,
        PersistenceMode::Fast,
    );
    let prefix = key_prefix(cfg.seed);
    let t = Instant::now();
    let inputs: Vec<RankInput> = (0..spec.ranks)
        .map(|rank| RankInput {
            rank,
            keys: (0..spec.keys_per_rank)
                .map(|i| format!("{prefix}/{}", spec.key(rank, i)))
                .collect(),
            values: (0..spec.keys_per_rank)
                .map(|i| spec.value(rank, i))
                .collect(),
        })
        .collect();
    it.generate_host_s = t.elapsed().as_secs_f64();
    // Collapsed, one rank issues every logical rank's stream back to back.
    let streams: Arc<Vec<Vec<RankInput>>> = Arc::new(if cfg.collapse {
        vec![inputs]
    } else {
        inputs.into_iter().map(|i| vec![i]).collect()
    });
    it.setup_host_s = setup.elapsed().as_secs_f64();

    let registry = observe(&machine, cfg);
    let (dev, rank_opts) = (Arc::clone(&device), opts.clone());
    let world = timed_world(&machine, streams.len(), cfg, {
        let streams = Arc::clone(&streams);
        move |comm, rec| {
            let mut tally = Tally::new(Vec::new());
            let mut pmem = Pmem::with_options(rank_opts.clone());
            let mapped = rec.time(Call::Mmap, || pmem.mmap(MmapTarget::DevDax(&dev), comm));
            if tally.call("mmap", mapped).is_some() {
                for input in &streams[comm.rank()] {
                    mint_and_sample(&pmem, input, rec, &mut tally);
                }
            }
            rec.time(Call::Barrier, || comm.barrier());
            if pmem.is_mapped() {
                let r = rec.time(Call::Munmap, || pmem.munmap());
                tally.call("munmap", r);
            }
            tally
        }
    });
    let sampled = world.into_timed_phase(&mut it);
    it.metrics = registry.map(|r| r.snapshot());

    let t = Instant::now();
    let mut samples = 0u64;
    for (rank, i, got) in sampled.into_iter().flatten() {
        samples += 1;
        let bad = spec.verify(rank, i, &got);
        it.check(bad == 0, || {
            format!("rank {rank} key {i}: {bad} bytes differ")
        });
    }
    it.verify_host_s = t.elapsed().as_secs_f64();
    it.payload_bytes = (spec.total_keys() + samples) * VALUE_BYTES;
    it.live_payload_bytes = spec.total_keys() * VALUE_BYTES;
    it.timed_ops = spec.total_keys() + samples;

    // Write-behind roots its WAL under one reserved hashtable key.
    let expected = spec.total_keys() + u64::from(write_behind);
    // The restart sample: logical rank 0's every-97th key, cold.
    let inspect = |pmem: &Pmem, it: &mut Iteration| {
        let first = &streams[0][0];
        for i in (0..first.keys.len()).step_by(SAMPLE as usize) {
            let got = pmem.load_slice::<u8>(&first.keys[i]);
            it.check(got.as_ref().is_ok_and(|g| *g == first.values[i]), || {
                format!(
                    "key {i} of rank 0 after reopen: {:?}",
                    got.as_ref().map(Vec::len)
                )
            });
        }
    };
    if let Some(shape) = reopen(&device, &opts, &mut it, inspect) {
        it.check(shape.entries == expected, || {
            format!("hashtable holds {} keys, {expected} minted", shape.entries)
        });
        it.check(shape.max_chain <= MAX_CHAIN, || {
            format!("longest chain {} > {MAX_CHAIN}", shape.max_chain)
        });
    }
    it
}

/// One logical rank's stream: every key in 64-key groups, then the sample.
fn mint_and_sample(
    pmem: &Pmem,
    input: &RankInput,
    rec: &mut crate::spans::Recorder,
    tally: &mut Tally<Vec<(u64, u64, Vec<u8>)>>,
) {
    for (keys, values) in input.keys.chunks(GROUP).zip(input.values.chunks(GROUP)) {
        let mut batch = pmem.batch();
        for (k, v) in keys.iter().zip(values) {
            // Staging borrows the payload; it cannot fail for a slice.
            let _ = batch.store_slice::<u8>(k, v);
        }
        let r = rec.time(Call::Put, || batch.commit());
        tally.call("commit", r);
    }
    let mut i = input.rank % SAMPLE;
    while (i as usize) < input.keys.len() {
        let r = rec.time(Call::Get, || pmem.load_slice::<u8>(&input.keys[i as usize]));
        if let Some(got) = tally.call("load_slice", r) {
            tally.out.push((input.rank, i, got));
        }
        i += SAMPLE;
    }
}
