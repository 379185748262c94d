//! The key-creation storm end to end: N ranks mint fresh keys through the
//! batched put path while the metadata directory doubles underneath them.
//!
//! 1. the run is bit-reproducible under the deterministic scheduler — per
//!    rank virtual times, media counters, and split counts all match across
//!    two identical runs;
//! 2. the settled table keeps the longest chain within the design bound;
//! 3. every key reads back byte-exact, and a pre-sized table that never
//!    splits stores the same contents (splits move entries, never change
//!    them).

use mpi_sim::{run_world_mode, SchedMode};
use pmem_sim::{Clock, Machine, PersistenceMode, PmemDevice, StatsSnapshot};
use pmemcpy::{registry, MmapTarget, Options, Pmem};
use std::sync::Arc;
use workloads::StormSpec;

const RANKS: u64 = 4;
const KEYS_PER_RANK: u64 = 2048;

/// One full storm: every rank batches its keys in steps of 64, then the
/// pool is inspected from outside the world. Returns everything that must
/// be identical across runs.
fn run_storm(opts: Options) -> (Vec<u64>, StatsSnapshot, u64, u64, u64) {
    let spec = StormSpec::new(RANKS, KEYS_PER_RANK, 8);
    let machine = Machine::chameleon();
    let dev_size = (spec.total_keys() * 384 + (32 << 20)) as usize;
    let device = PmemDevice::new(Arc::clone(&machine), dev_size, PersistenceMode::Fast);
    let dev2 = Arc::clone(&device);
    let opts2 = opts.clone();
    let times = run_world_mode(
        Arc::clone(&machine),
        spec.ranks as usize,
        SchedMode::Deterministic,
        move |comm| {
            let rank = comm.rank() as u64;
            let mut pmem = Pmem::with_options(opts2.clone());
            pmem.mmap(MmapTarget::DevDax(&dev2), &comm).unwrap();
            let mut i = 0;
            while i < spec.keys_per_rank {
                let n = (spec.keys_per_rank - i).min(64);
                let keys: Vec<String> = (i..i + n).map(|k| spec.key(rank, k)).collect();
                let vals: Vec<Vec<u8>> = (i..i + n).map(|k| spec.value(rank, k)).collect();
                let mut batch = pmem.batch();
                for (k, v) in keys.iter().zip(&vals) {
                    batch.store_slice::<u8>(k, v).unwrap();
                }
                batch.commit().unwrap();
                i += n;
            }
            // Every 31st key read back and checked against the generator.
            let mut k = rank % 31;
            while k < spec.keys_per_rank {
                let got: Vec<u8> = pmem.load_slice(&spec.key(rank, k)).unwrap();
                assert_eq!(spec.verify(rank, k, &got), 0, "rank {rank} key {k}");
                k += 31;
            }
            comm.barrier();
            let t = comm.now().as_nanos();
            pmem.munmap().unwrap();
            t
        },
    );
    let stats = machine.stats.snapshot();
    let clock = Clock::new();
    let shared = registry::shared_pool(&clock, &device, "pmemcpy", opts.hashtable_buckets).unwrap();
    let len = shared.hashtable.len(&clock);
    let max_chain = shared.hashtable.max_chain_len(&clock);
    let hist = shared.hashtable.chain_length_histogram(&clock);
    let buckets: u64 = hist.iter().sum();
    shared.pool.check_heap().unwrap();
    drop(shared);
    registry::release_pool(&device);
    (times, stats, len, max_chain, buckets)
}

#[test]
fn storm_is_bit_reproducible_and_chains_stay_bounded() {
    let spec = StormSpec::new(RANKS, KEYS_PER_RANK, 8);
    let (times_a, stats_a, len_a, chain_a, buckets_a) = run_storm(Options::default());
    let (times_b, stats_b, len_b, chain_b, buckets_b) = run_storm(Options::default());

    assert_eq!(times_a, times_b, "per-rank virtual times diverged");
    assert_eq!(
        (
            stats_a.pmem_bytes_written,
            stats_a.pmem_bytes_read,
            stats_a.pool_txs,
            stats_a.alloc_passes,
            stats_a.fences
        ),
        (
            stats_b.pmem_bytes_written,
            stats_b.pmem_bytes_read,
            stats_b.pool_txs,
            stats_b.alloc_passes,
            stats_b.fences
        ),
        "media counters diverged between identical runs"
    );
    assert_eq!((len_a, chain_a, buckets_a), (len_b, chain_b, buckets_b));

    assert_eq!(len_a, spec.total_keys(), "storm lost keys");
    assert!(
        chain_a <= 8,
        "chain bound violated: max chain {chain_a} > 8 at {len_a} keys"
    );
    assert!(
        buckets_a > spec.total_keys(),
        "directory never outgrew the key count: {buckets_a} buckets"
    );
}

#[test]
fn resizable_and_fixed_tables_store_identical_contents() {
    // Same storm, directory pre-sized to twice the key count so the split
    // trigger never fires: every key must still read back byte-exact (the
    // sampled verification inside run_storm), with zero splits.
    let spec = StormSpec::new(RANKS, KEYS_PER_RANK, 8);
    let presized = 2 * spec.total_keys();
    let (_, _, len, _, buckets) = run_storm(Options {
        hashtable_buckets: presized,
        ..Options::default()
    });
    assert_eq!(len, spec.total_keys());
    assert_eq!(buckets, presized, "a pre-sized table must never split");
}
