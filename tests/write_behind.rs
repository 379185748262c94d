//! Write-behind persistence mode, end to end:
//!
//! 1. puts cost one WAL append per commit group and zero pool transactions
//!    before the checkpoint drains;
//! 2. reads before the drain are served from the DRAM front index and are
//!    byte-identical to inline mode;
//! 3. a crash at every write-behind fail site — mid-append, mid-drain,
//!    mid-truncation, and during replay-on-open — recovers to contents
//!    byte-identical to an inline-mode reference, under both scheduler
//!    modes;
//! 4. the checkpoint lane never advances a rank's virtual clock, and a
//!    deterministic world that drains mid-run stays bit-reproducible.

use mpi_sim::{run_world_mode, Comm, SchedMode, World};
use pmdk_sim::PmemPool;
use pmem_sim::{Clock, Machine, MetricsRegistry, PersistenceMode, PmemDevice};
use pmemcpy::{registry, MmapTarget, Options, Pmem};
use std::collections::HashMap;
use std::sync::Arc;

/// A small WAL so the tests exercise realistic ring occupancy without
/// needing a large device.
const WAL_CAPACITY: u64 = 1 << 20;

fn wb_opts() -> Options {
    Options {
        wal_capacity: WAL_CAPACITY,
        ..Options::write_behind()
    }
}

/// Arm `site` under an RAII [`pmdk_sim::FailPointGuard`]: the guard asserts
/// that every armed site fired (an unfired site means the scenario never
/// reached the code path it meant to crash), and — because tests share
/// interned pools — disarms on drop, so a panicking assert can't leave a
/// live fail point behind for an unrelated later scenario.
fn arm_guarded<'a>(
    pool: &'a PmemPool,
    site: &'static str,
    nth: u32,
) -> pmdk_sim::FailPointGuard<'a> {
    let guard = pool.fail_points.guard();
    pool.fail_points.arm(site, nth);
    guard
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
/// drains and releases normally.
#[test]
fn failed_munmap_drain_is_retryable() {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Fast);
    let comm = single_rank(&machine);
    let mut pmem = Pmem::with_options(wb_opts());
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    write_group(&pmem, 0).unwrap();

    let shared = registry::shared_pool(&Clock::new(), &dev, "pmemcpy", 4096).unwrap();
    let fp = arm_guarded(&shared.pool, "wal::ckpt-drain", 1);
    assert!(pmem.munmap().is_err(), "armed drain must fail the unmap");
    assert!(
        pmem.is_mapped(),
        "failed unmap must leave the handle mapped for retry"
    );
    fp.assert_unfired("munmap retry");
    drop(fp);
    drop(shared);

    // Retry: the fail point already fired, so the drain completes and an
    // inline remap sees everything.
    pmem.munmap().unwrap();
    assert!(!pmem.is_mapped());
    let (ref_keys, ref_records) = inline_reference(&[0]);
    let mut inline = Pmem::new();
    inline.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    assert_matches_reference(&inline, &ref_keys, &ref_records, "after retried munmap");
    inline.munmap().unwrap();
}

/// Crash injection at every write-behind fail site, under both scheduler
/// modes. After each crash + reopen, the contents must be byte-identical
/// to an inline-mode run of the groups that committed successfully.
#[test]
fn every_crash_site_recovers_to_inline_identical_contents() {
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        for site in [
            "wal::append",
            "wal::ckpt-drain",
            "wal::truncate",
            "wal::replay",
        ] {
            crash_site_scenario(site, mode);
        }
    }
}

fn crash_site_scenario(site: &'static str, mode: SchedMode) {
    let ctx = format!("{site} ({mode:?})");
    // Which groups survive the crash: a failed append loses the whole
    // in-flight group; the drain/truncate/replay sites fail after both
    // groups are durable in the WAL.
    let surviving: &[u64] = if site == "wal::append" { &[0] } else { &[0, 1] };
    let (ref_keys, ref_records) = inline_reference(surviving);

    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 24 << 20, PersistenceMode::Tracked);
    let dev_in = Arc::clone(&dev);
    let ctx_in = ctx.clone();
    run_world_mode(Arc::clone(&machine), 1, mode, move |comm| {
        let dev = &dev_in;
        let ctx = &ctx_in;
        let mut pmem = Pmem::with_options(wb_opts());
        pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        write_group(&pmem, 0).unwrap();

        // Reach under the API for the interned pool's fail points.
        let clock = Clock::new();
        let shared = registry::shared_pool(&clock, dev, "pmemcpy", 4096).unwrap();
        let fp = shared.pool.fail_points.guard();
        match site {
            "wal::append" => {
                shared.pool.fail_points.arm(site, 1);
                let err = write_group(&pmem, 1).unwrap_err();
                assert!(
                    matches!(
                        err,
                        pmemcpy::PmemCpyError::Pmdk(pmdk_sim::PmdkError::Injected(_))
                    ),
                    "{ctx}: {err}"
                );
            }
            "wal::ckpt-drain" | "wal::truncate" => {
                write_group(&pmem, 1).unwrap();
                shared.pool.fail_points.arm(site, 1);
                assert!(pmem.checkpoint().is_err(), "{ctx}: checkpoint must abort");
            }
            "wal::replay" => {
                write_group(&pmem, 1).unwrap();
            }
            other => panic!("unknown site {other}"),
        }
        fp.assert_unfired(ctx);
        drop(fp);

        // Power failure; the DRAM front index and shadow evaporate.
        dev.crash();
        drop(pmem);
        drop(shared);
        registry::release_pool(dev);

        if site == "wal::replay" {
            // Crash *during* recovery itself: arm the per-pool site before
            // the remap interns the write-behind state, watch open fail,
            // crash again, and recover from scratch.
            let shared = registry::shared_pool(&Clock::new(), dev, "pmemcpy", 4096).unwrap();
            let fp = arm_guarded(&shared.pool, "wal::replay", 1);
            let mut doomed = Pmem::with_options(wb_opts());
            assert!(
                doomed.mmap(MmapTarget::DevDax(dev), &comm).is_err(),
                "{ctx}: replay must abort"
            );
            fp.assert_unfired(ctx);
            drop(fp);
            dev.crash();
            drop(shared);
            registry::release_pool(dev);
        }

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
