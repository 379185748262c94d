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
        run_storm_cell(SPEC, &opts, 31, &MachineConfig::chameleon_skylake()).unwrap();
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
