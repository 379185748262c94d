//! The key-creation storm end to end: N ranks mint fresh keys through the
//! batched put path while the metadata directory doubles underneath them.
//!
//! 1. the run is bit-reproducible under the deterministic scheduler — per
//!    rank virtual times, media counters, and split counts all match across
//!    two identical runs;
//! 2. the settled table keeps the longest chain within the design bound,
//!    streaming the records and committing them stay within their pinned
//!    sim_ns a put, a put and a migration chunk find what they need in the
//!    mirror (metadata reads a put, `ht.resize` against `put.reserve` on
//!    every lane), and a group publishes its values behind one fence (fences
//!    and metadata writes a put);
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

    // Neither streaming a record nor committing nor the put as a whole
    // costs more than when the record first took its block and entry
    // headers into its store: the bounds are what this storm measured
    // then, summed over the lanes — which lane takes a first-touch page
    // fault, or helps the chunk that finds one more entry still in the old
    // table, follows the interleave. An 8-byte record is one store with its
    // heads: 557.95 sim_ns a put (390.06 for the record alone when the two
    // heads were stores of their own, paid in `put.reserve` and
    // `tx.commit`; a per-field stream cost about as much as reserving the
    // record, ≈ 1 150 a put before the mirror). A commit executes the list
    // its transaction kept and flushes what it publishes behind the group's
    // one fence: 27.38 sim_ns an entry it links, a put's or one a migration
    // chunk relinks (42.31 while it also flushed each new entry; 0.6 % of a
    // lane before the values came first, when each head had a fence of its
    // own). The three phases of a put: 957.97 sim_ns a put (1 266.54 with
    // the heads stored apart).
    const MEMCPY_NS: u64 = 4_570_708; // over 8 192 puts
    const COMMIT_NS: (u64, u64) = (450_920, 8_192 + 8_278); // over these entries
    const PUT_NS: u64 = 7_847_725; // memcpy, reserve and commit, 8 192 puts
    assert_eq!(SPEC.total_keys(), 8_192, "the bounds are over 8 192 puts");
    let m = &cell_a.metrics;
    let (mut memcpy, mut commit, mut reserve, mut resizes) = (0, 0, 0, Vec::new());
    for lane in 0..SPEC.ranks {
        let phase = |name| {
            let phases = m.lane_phases(lane);
            phases.iter().find(|(n, _)| *n == name).map(|(_, t)| *t)
        };
        memcpy += phase("put.memcpy").unwrap().as_nanos();
        commit += phase("tx.commit").unwrap().as_nanos();
        reserve += phase("put.reserve").unwrap().as_nanos();
        // A migration chunk reads its sources from the mirror: the split tax
        // stays below the puts it taxes.
        let (resize, reserve) = (phase("ht.resize").unwrap(), phase("put.reserve").unwrap());
        assert!(
            resize < reserve,
            "lane {lane}: ht.resize {resize:?} against put.reserve {reserve:?}"
        );
        resizes.push(resize.as_nanos());
    }
    assert!(
        memcpy <= MEMCPY_NS,
        "put.memcpy {memcpy} sim_ns over 8 192 puts"
    );
    let linked = SPEC.total_keys() + m.counters["ht.entries_migrated"];
    assert!(
        commit * COMMIT_NS.1 <= COMMIT_NS.0 * linked,
        "tx.commit {commit} sim_ns over {linked} entries linked"
    );
    assert!(
        memcpy + reserve + commit <= PUT_NS,
        "put.memcpy + put.reserve + tx.commit {} sim_ns over 8 192 puts",
        memcpy + reserve + commit
    );
    // The split tax is paid by the puts it taxes, a chunk a mutation: every
    // lane puts as many keys, so every lane helps about as much: 2.9 % here.
    // (When the rank that began a split also zeroed the whole doubled
    // directory, the spread was 46 % here.)
    let (least, most) = (resizes.iter().min().unwrap(), resizes.iter().max().unwrap());
    assert!(
        most * 10 <= least * 11,
        "per-lane ht.resize spread {:.1} %: {resizes:?} sim_ns",
        (*most as f64 / *least as f64 - 1.0) * 100.0
    );
    // Every bucket of a table created this session is mirrored whole, so a
    // put finds its keys and a migration chunk its sources in DRAM: what
    // reads are left open the pool. 2.6 reads a put here before the mirror
    // (the put's own walk and one header a migrated entry), 6.2 when a
    // chunk scanned its source heads a word at a time and a commit read its
    // own intent slots back.
    let per_put = |n: u64| n as f64 / SPEC.total_keys() as f64;
    let reads = per_put(m.hists["pmem.meta_read"].count);
    assert!(reads <= 0.5, "{reads} metadata reads a put");
    // A group's values are flushed by its fill, its 64 head records are one
    // undo append, and one fence publishes it: 0.26 fences and 3.4 metadata
    // writes a put here (4.8 and 5.8 when each key logged, fenced and
    // published its head on its own and then persisted its value).
    let (fences, writes) = (
        per_put(cell_a.stats.fences),
        per_put(m.hists["pmem.meta_write"].count),
    );
    assert!(fences <= 0.5, "{fences} fences a put");
    assert!(writes <= 4.0, "{writes} metadata writes a put");
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
