//! Write-behind persistence mode, end to end:
//!
//! 1. puts cost one WAL append per commit group and zero pool transactions
//!    before the checkpoint drains;
//! 2. reads before the drain are served from the DRAM front index and are
//!    byte-identical to inline mode;
//! 3. a crash inside an append, a checkpoint drain and the truncate that
//!    ends it recovers to contents byte-identical to an inline-mode
//!    reference, under both scheduler modes (a crash inside replay-on-open:
//!    `tests/crash_states.rs`);
//! 4. the checkpoint lane never advances a rank's virtual clock, and a
//!    deterministic world that drains mid-run stays bit-reproducible;
//! 5. one read batch over drained keys and front-resident keys answers
//!    each key in order, and a front-resident variable reads exactly as it
//!    reads once drained.

mod support;

use mpi_sim::{run_world_mode, Comm, SchedMode, World};
use pmem_sim::flight::EventCode::{CkptBegin, CkptEnd, TxBegin, TxCommit, WalAppend, WalTruncate};
use pmem_sim::{Clock, Machine, MetricsRegistry, PersistenceMode, PmemDevice};
use pmemcpy::{registry, MmapTarget, Options, Pmem};
use simfs::{MountMode, SimFs};
use std::collections::HashMap;
use std::sync::Arc;
use support::{device_with, image_at, Timeline};

/// A small WAL so the tests exercise realistic ring occupancy without
/// needing a large device.
const WAL_CAPACITY: u64 = 1 << 20;

fn wb_opts() -> Options {
    Options {
        wal_capacity: WAL_CAPACITY,
        ..Options::write_behind()
    }
}

fn single_rank(machine: &Arc<Machine>) -> Comm {
    Comm::new(World::new(Arc::clone(machine), 1), 0)
}

/// Write commit group `g`: a fresh scalar and slice per group plus one
/// `shared` key every group overwrites (later records must win).
fn write_group(pmem: &Pmem, g: u64) -> pmemcpy::Result<()> {
    let slice: Vec<f64> = (0..256).map(|i| (g * 1000 + i) as f64).collect();
    let shared = vec![g as f64; 64];
    let mut batch = pmem.batch();
    batch.store_scalar(&format!("gen{g}"), g)?;
    batch.store_slice(&format!("v{g}"), &slice)?;
    batch.store_slice("shared", &shared)?;
    batch.commit()
}

/// Inline-mode reference for the same groups: the byte-level ground truth
/// write-behind must converge to after any crash.
fn inline_reference(groups: &[u64]) -> (Vec<String>, HashMap<String, Vec<u8>>) {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Fast);
    let comm = single_rank(&machine);
    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    for &g in groups {
        write_group(&pmem, g).unwrap();
    }
    let keys = pmem.keys().unwrap();
    let records = keys
        .iter()
        .map(|k| (k.clone(), pmem.raw_record(k).unwrap()))
        .collect();
    pmem.munmap().unwrap();
    (keys, records)
}

/// Assert `pmem` holds exactly the reference contents, byte for byte.
fn assert_matches_reference(
    pmem: &Pmem,
    ref_keys: &[String],
    ref_records: &HashMap<String, Vec<u8>>,
    context: &str,
) {
    let mut keys = pmem.keys().unwrap();
    keys.sort();
    let mut expect = ref_keys.to_vec();
    expect.sort();
    assert_eq!(keys, expect, "{context}: key listing diverged");
    for key in ref_keys {
        assert_eq!(
            &pmem.raw_record(key).unwrap(),
            &ref_records[key],
            "{context}: record for {key} diverged from inline mode"
        );
    }
}

/// DRAM-speed puts: each commit group costs exactly one WAL append and no
/// pool transaction; reads before the drain come from the front index and
/// match inline-mode bytes exactly.
#[test]
fn puts_cost_one_wal_append_and_zero_transactions_before_checkpoint() {
    let machine = Machine::chameleon();
    let registry_m = MetricsRegistry::new();
    assert!(machine.set_metrics(Arc::clone(&registry_m)));
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Fast);
    let comm = single_rank(&machine);
    let mut pmem = Pmem::with_options(wb_opts());
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();

    const GROUPS: u64 = 3;
    let stats0 = machine.stats.snapshot();
    let m0 = registry_m.snapshot();
    for g in 0..GROUPS {
        write_group(&pmem, g).unwrap();
    }
    let m1 = registry_m.snapshot();
    let stats1 = machine.stats.snapshot();
    assert_eq!(
        m1.counter("wal.appends") - m0.counter("wal.appends"),
        GROUPS,
        "one WAL append per commit group"
    );
    assert_eq!(
        stats1.pool_txs - stats0.pool_txs,
        0,
        "the write-behind put path must not open pool transactions"
    );
    assert_eq!(m1.counter("wal.bypass"), m0.counter("wal.bypass"));

    // Reads before the drain: front-index hits, inline-identical bytes.
    assert_eq!(pmem.load_scalar::<u64>("gen2").unwrap(), 2);
    assert_eq!(pmem.load_slice::<f64>("shared").unwrap(), vec![2.0; 64]);
    let m2 = registry_m.snapshot();
    assert!(
        m2.counter("wb.front_hits") > m1.counter("wb.front_hits"),
        "pre-checkpoint reads must hit the front index"
    );
    let (ref_keys, ref_records) = inline_reference(&(0..GROUPS).collect::<Vec<_>>());
    assert_matches_reference(&pmem, &ref_keys, &ref_records, "before checkpoint");

    // An explicit checkpoint drains every record; the data (and its bytes)
    // are unchanged, now served by the durable layout.
    let drained = pmem.checkpoint().unwrap();
    assert!(drained >= GROUPS as usize, "drained {drained} records");
    let m3 = registry_m.snapshot();
    assert!(m3.counter("ckpt.drains") > m2.counter("ckpt.drains"));
    assert_matches_reference(&pmem, &ref_keys, &ref_records, "after checkpoint");
    pmem.munmap().unwrap();
}

/// munmap checkpoints: a device written in write-behind mode reads back
/// identically when remapped in plain inline mode (nothing lives only in
/// the WAL or the front index afterwards).
#[test]
fn munmap_drains_so_inline_mode_reads_the_same_data() {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Fast);
    let comm = single_rank(&machine);
    let mut pmem = Pmem::with_options(wb_opts());
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    for g in 0..4 {
        write_group(&pmem, g).unwrap();
    }
    pmem.munmap().unwrap();

    let (ref_keys, ref_records) = inline_reference(&[0, 1, 2, 3]);
    let comm = single_rank(&machine);
    let mut inline = Pmem::new();
    inline.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    assert_matches_reference(&inline, &ref_keys, &ref_records, "inline remap");
    inline.munmap().unwrap();
}

/// Options are validated at mmap time: an inconsistent write-behind
/// combination surfaces as a typed Config error, not a deep panic.
#[test]
fn invalid_write_behind_options_fail_at_mmap() {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 8 << 20, PersistenceMode::Fast);
    let comm = single_rank(&machine);
    let mut pmem = Pmem::with_options(Options {
        wal_capacity: 0,
        ..Options::write_behind()
    });
    let err = pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap_err();
    assert!(
        matches!(err, pmemcpy::PmemCpyError::Config(_)),
        "expected a Config error, got {err}"
    );
    assert!(!pmem.is_mapped());
}

/// The oversized-group bypass must not leave older WAL records behind: a
/// small put followed by an oversized overwrite of the same key has to
/// read back the new value before the next checkpoint, after it, and
/// after a crash + reopen (a stale log record would otherwise be replayed
/// over the newer inline data, or rebuilt into the front on recovery).
#[test]
fn oversized_bypass_never_loses_to_older_wal_records() {
    let machine = Machine::chameleon();
    let registry_m = MetricsRegistry::new();
    assert!(machine.set_metrics(Arc::clone(&registry_m)));
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Tracked);
    let comm = single_rank(&machine);
    let mut pmem = Pmem::with_options(wb_opts());
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();

    // WAL-resident put, then an oversized (> capacity/2) overwrite of the
    // same key that takes the inline bypass path.
    pmem.store_slice("k", &[1.0f64; 64]).unwrap();
    let big: Vec<f64> = (0..100_000).map(|i| i as f64).collect();
    pmem.store_slice("k", &big).unwrap();
    assert_eq!(registry_m.snapshot().counter("wal.bypass"), 1);

    assert_eq!(
        pmem.load_slice::<f64>("k").unwrap(),
        big,
        "front index served the pre-bypass value"
    );
    pmem.checkpoint().unwrap();
    assert_eq!(
        pmem.load_slice::<f64>("k").unwrap(),
        big,
        "checkpoint replayed an older WAL record over the bypass write"
    );

    // Crash + reopen: recovery must not rebuild a stale front entry.
    dev.crash();
    drop(pmem);
    registry::release_pool(&dev);
    let mut pmem = Pmem::with_options(wb_opts());
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    assert_eq!(
        pmem.load_slice::<f64>("k").unwrap(),
        big,
        "replay-on-open resurrected the pre-bypass value"
    );
    pmem.munmap().unwrap();
}

/// A removed key is gone for good: absent right away (its WAL records are
/// drained before the durable entry goes, and the front index goes with
/// them), absent after the next checkpoint, and absent after a crash +
/// reopen — no WAL record is left to replay it back. Its neighbours, and a
/// later put of the same key, are untouched.
#[test]
fn removed_keys_stay_removed() {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Tracked);
    let comm = single_rank(&machine);
    let mut pmem = Pmem::with_options(wb_opts());
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();

    // `gone` is overwritten before it is removed, so several WAL records
    // carry it; `reborn` is removed and then stored again.
    write_group(&pmem, 0).unwrap();
    pmem.store_slice("gone", &[1.0f64; 8]).unwrap();
    pmem.store_slice("reborn", &[2.0f64; 8]).unwrap();
    pmem.store_slice("gone", &[3.0f64; 16]).unwrap();
    assert!(pmem.remove("gone").unwrap());
    assert!(pmem.remove("reborn").unwrap());
    assert!(!pmem.remove("gone").unwrap(), "already removed");
    pmem.store_slice("reborn", &[4.0f64; 4]).unwrap();

    let check = |pmem: &Pmem, context: &str| {
        assert!(!pmem.exists("gone"), "{context}");
        assert!(pmem.load_slice::<f64>("gone").is_err(), "{context}");
        assert!(
            !pmem.keys().unwrap().contains(&"gone".to_string()),
            "{context}"
        );
        assert_eq!(
            pmem.load_slice::<f64>("reborn").unwrap(),
            vec![4.0; 4],
            "{context}"
        );
        assert_eq!(pmem.load_scalar::<u64>("gen0").unwrap(), 0, "{context}");
    };
    check(&pmem, "before the checkpoint");
    pmem.checkpoint().unwrap();
    check(&pmem, "after the checkpoint");
    write_group(&pmem, 1).unwrap();

    dev.crash();
    drop(pmem);
    registry::release_pool(&dev);
    let mut pmem = Pmem::with_options(wb_opts());
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    check(&pmem, "after crash + reopen");
    assert_eq!(pmem.load_scalar::<u64>("gen1").unwrap(), 1);
    pmem.munmap().unwrap();
}

/// A drain failure at munmap must leave the handle mapped (and the
/// interned pool state alive) so the unmap can be retried; the retry then
/// drains and releases normally. The failure is a full pool: the test holds
/// its largest free block.
#[test]
fn failed_munmap_drain_is_retryable() {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Fast);
    let comm = single_rank(&machine);
    let mut pmem = Pmem::with_options(wb_opts());
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    write_group(&pmem, 0).unwrap();

    let clock = Clock::new();
    let shared = registry::shared_pool(&clock, &dev, "pmemcpy", 4096).unwrap();
    let largest = pmdk_sim::doctor::walk_heap(&dev).largest_free_block;
    let ballast = shared.pool.alloc(&clock, largest / 64 * 64).unwrap(); // aligned down
    let err = pmem.munmap().unwrap_err();
    assert!(
        matches!(
            err,
            pmemcpy::PmemCpyError::Pmdk(pmdk_sim::PmdkError::OutOfMemory { .. })
        ),
        "a full pool must fail the unmap's drain: {err}"
    );
    assert!(
        pmem.is_mapped(),
        "failed unmap must leave the handle mapped for retry"
    );
    shared.pool.free(&clock, ballast).unwrap();
    drop(shared);

    // Retry: the pool has room again, so the drain completes and an inline
    // remap sees everything.
    pmem.munmap().unwrap();
    assert!(!pmem.is_mapped());
    let (ref_keys, ref_records) = inline_reference(&[0]);
    let mut inline = Pmem::new();
    inline.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    assert_matches_reference(&inline, &ref_keys, &ref_records, "after retried munmap");
    inline.munmap().unwrap();
}

/// Groups 0 and 1, then a checkpoint: the run every crash below is a point
/// of, on a tracked device under scheduler `mode`.
fn two_groups_and_a_checkpoint(dev: &Arc<PmemDevice>, mode: SchedMode) {
    let dev_in = Arc::clone(dev);
    run_world_mode(Arc::clone(dev.machine()), 1, mode, move |comm| {
        let mut pmem = Pmem::with_options(wb_opts());
        pmem.mmap(MmapTarget::DevDax(&dev_in), &comm).unwrap();
        write_group(&pmem, 0).unwrap();
        write_group(&pmem, 1).unwrap();
        pmem.checkpoint().unwrap();
    });
    registry::release_pool(dev);
}

fn tracked() -> Arc<PmemDevice> {
    PmemDevice::new(Machine::chameleon(), 24 << 20, PersistenceMode::Tracked)
}

/// A crash inside group 1's append (its tail not yet durable), inside the
/// checkpoint drain's second group (the first has landed, the watermark is
/// unmoved) and inside the truncate (every record applied, the head not yet
/// durable), under both scheduler modes. After each crash + reopen, the
/// contents must be byte-identical to an inline-mode run of the groups that
/// committed.
#[test]
fn every_crash_site_recovers_to_inline_identical_contents() {
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        let dev = tracked();
        let timeline = Timeline::of(&dev, || two_groups_and_a_checkpoint(&dev, mode));
        let append = timeline.between(&[WalAppend], &[WalAppend]);
        let drain = timeline.between(&[CkptBegin, TxBegin, TxCommit, TxBegin], &[TxCommit]);
        let truncate = timeline.between(&[TxCommit], &[WalTruncate, CkptEnd]);
        for (site, k, surviving) in [
            ("append", append.last(), &[0][..]),
            ("drain", drain.first(), &[0, 1]),
            ("truncate", truncate.last(), &[0, 1]),
        ] {
            let k = *k.unwrap_or_else(|| panic!("no crash point inside the {site}"));
            crash_site_scenario(
                &format!("{site} at crash point {k} ({mode:?})"),
                k,
                surviving,
                mode,
            );
        }
    }
}

fn crash_site_scenario(ctx: &str, k: usize, surviving: &'static [u64], mode: SchedMode) {
    let (ref_keys, ref_records) = inline_reference(surviving);
    let tracked = tracked();
    let image = image_at(&tracked, k, || two_groups_and_a_checkpoint(&tracked, mode));
    let dev = device_with(&image, PersistenceMode::Fast);
    let (dev_in, ctx) = (Arc::clone(&dev), ctx.to_string());
    run_world_mode(Arc::clone(dev.machine()), 1, mode, move |comm| {
        let dev = &dev_in;
        let ctx = &ctx;
        // Reopen: recovery replays log-over-last-checkpoint into the front
        // index; contents must equal the inline-mode reference.
        let mut pmem = Pmem::with_options(wb_opts());
        pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        assert_matches_reference(&pmem, &ref_keys, &ref_records, ctx);
        assert_eq!(
            pmem.load_slice::<f64>("shared").unwrap(),
            vec![*surviving.last().unwrap() as f64; 64],
            "{ctx}: later WAL records must win"
        );
        let shared = registry::shared_pool(&Clock::new(), dev, "pmemcpy", 4096).unwrap();
        shared
            .pool
            .check_heap()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        drop(shared);
        pmem.munmap().unwrap();

        // And the drain at munmap really emptied the WAL: an inline-mode
        // remap sees the same bytes with no write-behind machinery at all.
        let mut inline = Pmem::new();
        inline.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        assert_matches_reference(&inline, &ref_keys, &ref_records, ctx);
        inline.munmap().unwrap();
    });
}

/// The checkpoint lane: draining mid-run never advances a rank's virtual
/// clock, and a two-rank deterministic world that checkpoints stays
/// bit-reproducible across runs.
#[test]
fn checkpoint_lane_is_free_for_ranks_and_deterministic() {
    let run = || {
        let machine = Machine::chameleon();
        let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
        let dev_in = Arc::clone(&dev);
        run_world_mode(
            Arc::clone(&machine),
            2,
            SchedMode::Deterministic,
            move |comm| {
                let mut pmem = Pmem::with_options(wb_opts());
                pmem.mmap(MmapTarget::DevDax(&dev_in), &comm).unwrap();
                let rank = comm.rank() as u64;
                write_group(&pmem, rank).unwrap();
                comm.barrier();
                if comm.rank() == 0 {
                    let before = pmem.now();
                    pmem.checkpoint().unwrap();
                    assert_eq!(
                        pmem.now(),
                        before,
                        "checkpoint work leaked into the rank clock"
                    );
                }
                comm.barrier();
                // Both ranks read both generations after the drain.
                for g in 0..2u64 {
                    assert_eq!(pmem.load_scalar::<u64>(&format!("gen{g}")).unwrap(), g);
                }
                pmem.munmap().unwrap();
            },
        );
        machine.stats.snapshot()
    };
    let a = run();
    let b = run();
    assert_eq!(
        (a.pmem_bytes_written, a.pool_txs, a.fences),
        (b.pmem_bytes_written, b.pool_txs, b.fences),
        "deterministic write-behind run diverged"
    );
}

/// One read batch over keys a checkpoint moved into the table and keys
/// still in the front index, interleaved: every key comes back in order
/// with its bytes and header, each front-resident key counts one front hit,
/// and the batch costs what it always has.
#[test]
fn a_read_batch_interleaves_front_hits_and_table_reads() {
    let machine = Machine::chameleon();
    let metrics = MetricsRegistry::new();
    assert!(machine.set_metrics(Arc::clone(&metrics)));
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Fast);
    let comm = single_rank(&machine);
    let mut pmem = Pmem::with_options(wb_opts());
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    let key = |k: usize| format!("k{k}");
    let value = |k: usize| -> Vec<f64> { (0..32 + 8 * k).map(|i| (k * 100 + i) as f64).collect() };
    // Even keys drained into the table, odd keys left in the front index.
    for k in (0..8).step_by(2) {
        pmem.store_slice(&key(k), &value(k)).unwrap();
    }
    assert_eq!(pmem.checkpoint().unwrap(), 4);
    for k in (1..8).step_by(2) {
        pmem.store_slice(&key(k), &value(k)).unwrap();
    }

    let hits = || metrics.snapshot().counter("wb.front_hits");
    let (hits0, t0) = (hits(), pmem.now());
    let mut batch = pmem.read_batch();
    let handles: Vec<_> = (0..8)
        .map(|k| batch.load_slice::<f64>(&key(k)).unwrap())
        .collect();
    let mut results = batch.commit().unwrap();
    let cost = pmem.now() - t0;
    for (k, h) in handles.into_iter().enumerate() {
        let hdr = results.header(&h);
        assert_eq!(hdr.meta.name, key(k));
        assert_eq!(hdr.meta.dims, [value(k).len() as u64]);
        assert_eq!(hdr.payload_len, value(k).len() as u64 * 8);
        assert_eq!(results.take(h), value(k), "{}", key(k));
    }
    assert_eq!(hits() - hits0, 4, "one front hit per front-resident key");
    assert_eq!(cost.as_nanos(), BATCH_NS, "the batch's virtual cost moved");
    pmem.munmap().unwrap();
}

/// [`a_read_batch_interleaves_front_hits_and_table_reads`]' batch cost on
/// the chameleon machine: four table reads and four front hits. Each table
/// record (k0 to k6: 256 to 640 payload bytes behind a header of ≈ 90) is
/// one load, split at the header length its entry names. It was 6 051
/// while each was two, the header's window first: one load latency,
/// 300 ns, more each, the same bytes. It was 6 653 while a record's
/// trailer was a load of its own (k4, k6, 301 ns each).
const BATCH_NS: u64 = 4_851;

/// A variable still in the front index reads exactly as it reads once a
/// checkpoint has drained it: its dims, a region across both its blocks,
/// every raw record and every file the burst-buffer drain writes.
#[test]
fn a_front_resident_variable_reads_as_it_does_once_drained() {
    let machine = Machine::chameleon();
    let metrics = MetricsRegistry::new();
    assert!(machine.set_metrics(Arc::clone(&metrics)));
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Fast);
    let comm = single_rank(&machine);
    let mut pmem = Pmem::with_options(wb_opts());
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    let global = [16u64, 8];
    let cell = |r: u64, c: u64| (r * 8 + c) as f64;
    pmem.alloc::<f64>("A", &global).unwrap();
    for row0 in [0u64, 8] {
        let block: Vec<f64> = (row0..row0 + 8)
            .flat_map(|r| (0..8).map(move |c| cell(r, c)))
            .collect();
        pmem.store_block("A", &block, &[row0, 0], &[8, 8]).unwrap();
    }

    let observe = |pmem: &Pmem| {
        let dims = pmem.load_dims("A").unwrap();
        let mut region = vec![0f64; 6 * 5];
        pmem.load_region("A", &mut region, &[5, 2], &[6, 5])
            .unwrap();
        let mut keys = pmem.keys().unwrap();
        keys.sort();
        let raw: Vec<Vec<u8>> = keys.iter().map(|k| pmem.raw_record(k).unwrap()).collect();
        let bb_dev = PmemDevice::new(Arc::clone(&machine), 4 << 20, PersistenceMode::Fast);
        let bb = SimFs::mount_all(bb_dev, MountMode::PageCache);
        let report = pmem.drain_to_storage(&bb, "/bb").unwrap();
        let clock = Clock::new();
        let mut files: Vec<(String, Vec<u8>)> = (bb.list_dir("/bb").unwrap().into_iter())
            .map(|(name, _)| {
                let path = format!("/bb/{name}");
                let mut bytes = vec![0u8; bb.file_size(&path).unwrap() as usize];
                let fd = bb.open(&clock, &path).unwrap();
                assert_eq!(bb.read_at(&clock, fd, 0, &mut bytes).unwrap(), bytes.len());
                bb.close(&clock, fd).unwrap();
                (name, bytes)
            })
            .collect();
        files.sort();
        assert_eq!((report.keys, files.len()), (keys.len(), keys.len()));
        (dims, region, keys, raw, files)
    };
    let hits = || metrics.snapshot().counter("wb.front_hits");
    let before = hits();
    let front = observe(&pmem);
    assert!(hits() > before, "the first reads were not front hits");
    assert_eq!(pmem.checkpoint().unwrap(), 3, "the dims and two blocks");
    let before = hits();
    let drained = observe(&pmem);
    assert_eq!(hits(), before, "the drained reads were front hits");
    assert_eq!(front, drained);
    assert_eq!(front.0 .1, global);
    let expect: Vec<f64> = (5..11)
        .flat_map(|r| (2..7).map(move |c| cell(r, c)))
        .collect();
    assert_eq!(front.1, expect);
    pmem.munmap().unwrap();
}
