//! The key-creation storm end to end: N ranks mint fresh keys through the
//! batched put path while the metadata directory doubles underneath them.
//!
//! 1. the run is bit-reproducible under the deterministic scheduler — per
//!    rank virtual times, media counters, and split counts all match across
//!    two identical runs;
//! 2. the settled table keeps the longest chain within the design bound,
//!    streaming the records costs each rank less than half of reserving them,
//!    and neither a per-word directory scan nor a commit that reads its own
//!    intents back has returned (metadata reads a put, `tx.commit` and
//!    `ht.resize` shares of every lane);
//! 3. every key reads back byte-exact, and a pre-sized table that never
//!    splits stores the same contents (splits move entries, never change
//!    them);
//! 4. under write-behind a sampled get costs one front-index probe or one
//!    chain walk whether or not a split is in flight, at either of two key
//!    lengths (the read cliff lookups that migrated used to fall off).
//!
//! Drives the same storm cell `figures creation-storm` gates in CI, with
//! its own read-back stride; the cell itself fails on a pool that does not
//! reopen or a heap that breaks an allocator invariant.

use pmem_sim::MachineConfig;
use pmemcpy::Options;
use pmemcpy_bench::{run_storm_cell, CellResult, StormShape};
use workloads::StormSpec;

const SPEC: StormSpec = StormSpec {
    ranks: 4,
    keys_per_rank: 2048,
    value_bytes: 8,
};

/// One full storm, every 31st key read back and checked against the
/// generator.
fn run_storm(opts: Options) -> (CellResult, StormShape) {
    let (cell, shape) =
        run_storm_cell(SPEC, "", &opts, 31, &MachineConfig::chameleon_skylake()).unwrap();
    assert_eq!(cell.mismatches, 0, "sampled read-back corrupted");
    (cell, shape)
}

#[test]
fn storm_is_bit_reproducible_and_chains_stay_bounded() {
    let (cell_a, shape_a) = run_storm(Options::default());
    let (cell_b, shape_b) = run_storm(Options::default());

    assert_eq!(
        cell_a.rank_times, cell_b.rank_times,
        "per-rank virtual times diverged"
    );
    let counters = |c: &CellResult| {
        let s = &c.stats;
        (
            s.pmem_bytes_written,
            s.pmem_bytes_read,
            s.pool_txs,
            s.alloc_passes,
            s.fences,
        )
    };
    assert_eq!(
        counters(&cell_a),
        counters(&cell_b),
        "media counters diverged between identical runs"
    );
    assert_eq!(shape_a, shape_b);

    assert_eq!(shape_a.len, SPEC.total_keys(), "storm lost keys");
    assert!(
        shape_a.max_chain <= 8,
        "chain bound violated: max chain {} > 8 at {} keys",
        shape_a.max_chain,
        shape_a.len
    );
    assert!(
        shape_a.buckets > SPEC.total_keys(),
        "directory never outgrew the key count: {} buckets",
        shape_a.buckets
    );

    // An 8-byte record is one store, not one per header field: streaming it
    // costs a rank well under half of what reserving its space does (a
    // per-field stream cost about as much as the reservation).
    let m = &cell_a.metrics;
    for lane in 0..SPEC.ranks {
        let phase = |name| {
            let phases = m.lane_phases(lane);
            phases.iter().find(|(n, _)| *n == name).map(|(_, t)| *t)
        };
        let (memcpy, reserve) = (phase("put.memcpy").unwrap(), phase("put.reserve").unwrap());
        assert!(
            memcpy < reserve / 2,
            "lane {lane}: put.memcpy {memcpy:?} against put.reserve {reserve:?}"
        );
        // A commit executes the list its transaction kept and a migration
        // chunk fetches its source heads as one run: the commit is a sliver
        // of the lane and the split tax stays below the puts it taxes.
        let (commit, resize) = (phase("tx.commit").unwrap(), phase("ht.resize").unwrap());
        assert!(
            commit * 50 < m.lane_total(lane),
            "lane {lane}: tx.commit {commit:?} of {:?}",
            m.lane_total(lane)
        );
        assert!(
            resize < reserve,
            "lane {lane}: ht.resize {resize:?} against put.reserve {reserve:?}"
        );
    }
    // 6.2 reads a put was a per-word scan of the source heads plus the
    // commit reading its own intent slots back.
    let reads = m.hists["pmem.meta_read"].count as f64 / SPEC.total_keys() as f64;
    assert!(reads <= 3.5, "{reads} metadata reads a put");
}

#[test]
fn resizable_and_fixed_tables_store_identical_contents() {
    // Same storm, directory pre-sized to twice the key count so the split
    // trigger never fires: every key must still read back byte-exact (the
    // sampled verification inside run_storm), with zero splits.
    let presized = 2 * SPEC.total_keys();
    let (_, shape) = run_storm(Options {
        hashtable_buckets: presized,
        ..Options::default()
    });
    assert_eq!(shape.len, SPEC.total_keys());
    assert_eq!(
        shape.buckets, presized,
        "a pre-sized table must never split"
    );
}

/// The write-behind read cliff: a get that found a split in flight used to
/// migrate a chunk of it on the reader's clock (~290 sim_us against 4.7),
/// and whether one was in flight when the sampling began turned on the WAL
/// record size, i.e. on the key length. Lookups never migrate now, so a
/// sampled get is a front-index hit or one chain walk, whatever the keys.
#[test]
fn a_sampled_get_costs_the_same_whatever_the_key_length() {
    let spec = StormSpec::new(8, 2048, 8);
    let pool_served = |prefix: &str| {
        let mc = MachineConfig::chameleon_skylake();
        // A quarter of the default WAL for a quarter of `storm_wb`'s keys.
        let opts = Options {
            wal_capacity: 2 << 20,
            ..Options::write_behind()
        };
        let (cell, shape) = run_storm_cell(spec, prefix, &opts, 31, &mc).unwrap();
        assert_eq!(cell.mismatches, 0, "{prefix:?}: read-back corrupted");
        let costs: Vec<f64> = shape.get_costs.iter().map(|t| t.as_micros_f64()).collect();
        let worst = costs.iter().copied().fold(0.0, f64::max);
        // A front-index hit is one DRAM probe; the rest walked a chain.
        let pool: Vec<f64> = costs.iter().copied().filter(|&c| c > 1.0).collect();
        assert!(
            worst < 10.0,
            "{prefix:?}: a sampled get cost {worst} sim_us"
        );
        assert!(!pool.is_empty(), "{prefix:?}: no get reached the pool");
        pool.iter().sum::<f64>() / pool.len() as f64
    };
    let (short, long) = (pool_served(""), pool_served("xxx"));
    assert!(
        short <= 2.0 * long && long <= 2.0 * short,
        "pool-served get: {short} sim_us vs {long} with three more key bytes"
    );
}
