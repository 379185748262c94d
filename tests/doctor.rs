//! `pmemcpy-doctor` verdicts, end to end:
//!
//! 1. a pool crashed at every fail-point site in the crash matrix gets a
//!    FAIL verdict naming the responsible subsystem, and the flight
//!    recorder's last fail-point event names the fired site — under both
//!    scheduler modes;
//! 2. no false positives: every clean-pool `Options` combination
//!    (inline/write-behind × pre-sized/splitting) diagnoses all-PASS, with the
//!    trailing `Unmount` event as the clean-shutdown witness;
//! 3. a hierarchical-files dataset (the other layout — no pool on the
//!    device) is rejected gracefully rather than mis-diagnosed.
//!
//! The doctor never mounts or recovers: every assertion here runs against
//! the raw post-crash (or post-unmount) image.

use mpi_sim::{run_world_mode, Comm, SchedMode, World};
use pmem_sim::flight::EventCode;
use pmem_sim::{Clock, Machine, PersistenceMode, PmemDevice};
use pmemcpy::{registry, MmapTarget, Options, Pmem};
use pmemcpy_bench::doctor::{diagnose, Diagnosis, Status};
use simfs::{MountMode, SimFs};
use std::sync::Arc;

const DEVICE_BYTES: usize = 16 << 20;

/// Small table so the 80-key clean workload and the split-site crash
/// workloads cross the split trigger quickly.
const SPLITTING_BUCKETS: u64 = 64;
/// Twice the clean workload's 80 keys: a table that never splits.
const PRESIZED_BUCKETS: u64 = 160;

fn opts(write_behind: bool, buckets: u64) -> Options {
    let mut o = if write_behind {
        Options::write_behind()
    } else {
        Options::default()
    };
    o.hashtable_buckets = buckets;
    o
}

fn store_keys(pmem: &Pmem, from: u64, to: u64) -> pmemcpy::Result<()> {
    for i in from..to {
        pmem.store_scalar(&format!("key{i}"), i)?;
    }
    Ok(())
}

/// Drive a pool into an injected crash at `site` under scheduler `mode`,
/// power-fail the device, and return it un-recovered for diagnosis.
fn crash_pool_at(site: &'static str, mode: SchedMode) -> Arc<PmemDevice> {
    let ctx = format!("{site} ({mode:?})");
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), DEVICE_BYTES, PersistenceMode::Tracked);
    let dev_in = Arc::clone(&dev);
    let o = opts(site.starts_with("wal::"), SPLITTING_BUCKETS);
    run_world_mode(Arc::clone(&machine), 1, mode, move |comm| {
        let dev = &dev_in;
        let mut pmem = Pmem::with_options(o.clone());
        pmem.mmap(MmapTarget::DevDax(dev), &comm).unwrap();
        let shared =
            registry::shared_pool(&comm.clock_arc(), dev, "pmemcpy", o.hashtable_buckets).unwrap();
        if site == "wal::replay" {
            // Committed WAL records + power failure, then crash during
            // the recovery replay itself on the remount.
            store_keys(&pmem, 0, 8).unwrap();
            dev.crash();
            drop(pmem);
            drop(shared);
            registry::release_pool(dev);
            let reopened =
                registry::shared_pool(&Clock::new(), dev, "pmemcpy", o.hashtable_buckets).unwrap();
            let fp = reopened.pool.fail_points.guard();
            reopened.pool.fail_points.arm(site, 1);
            let mut doomed = Pmem::with_options(o.clone());
            assert!(
                doomed.mmap(MmapTarget::DevDax(dev), &comm).is_err(),
                "{ctx}: replay must abort"
            );
            fp.assert_unfired(&ctx);
            drop(fp);
            dev.crash();
            drop(doomed);
            drop(reopened);
            registry::release_pool(dev);
            return;
        }
        let fp = shared.pool.fail_points.guard();
        match site {
            "wal::append" => {
                store_keys(&pmem, 0, 8).unwrap();
                shared.pool.fail_points.arm(site, 1);
                assert!(store_keys(&pmem, 8, 9).is_err(), "{ctx}: append must fail");
            }
            "wal::ckpt-drain" | "wal::truncate" => {
                store_keys(&pmem, 0, 8).unwrap();
                shared.pool.fail_points.arm(site, 1);
                assert!(pmem.checkpoint().is_err(), "{ctx}: drain must abort");
            }
            "ht::count-fold" => {
                store_keys(&pmem, 0, 8).unwrap();
                shared.pool.fail_points.arm(site, 1);
                assert!(pmem.munmap().is_err(), "{ctx}: quiesce must abort");
            }
            // Split sites: grow toward the trigger, arm, insert until hit.
            _ => {
                store_keys(&pmem, 0, 30).unwrap();
                shared.pool.fail_points.arm(site, 1);
                let fired = (30..300).any(|i| store_keys(&pmem, i, i + 1).is_err());
                assert!(fired, "{ctx}: site never fired within 300 inserts");
            }
        }
        fp.assert_unfired(&ctx);
        drop(fp);
        dev.crash();
        drop(pmem);
        drop(shared);
        registry::release_pool(dev);
    });
    dev
}

fn verdict<'a>(d: &'a Diagnosis, check: &str) -> &'a pmemcpy_bench::doctor::Verdict {
    d.verdicts
        .iter()
        .find(|v| v.check == check)
        .unwrap_or_else(|| panic!("no {check} verdict in {:?}", d.verdicts))
}

/// Every crash-matrix site: the doctor must FAIL the image, the
/// clean-shutdown verdict must name the responsible subsystem, and the
/// flight recorder's last fail-point event must name the fired site.
#[test]
fn crashed_pools_fail_with_the_responsible_subsystem() {
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        for site in [
            "wal::append",
            "wal::ckpt-drain",
            "wal::truncate",
            "wal::replay",
            "ht::migrate",
            "ht::cursor-advance",
            "ht::count-fold",
        ] {
            let ctx = format!("{site} ({mode:?})");
            let dev = crash_pool_at(site, mode);
            let d = diagnose(&dev).unwrap_or_else(|e| panic!("{ctx}: diagnose failed: {e}"));
            assert!(d.failed(), "{ctx}: crashed image must fail diagnosis");
            let v = verdict(&d, "clean-shutdown");
            assert_eq!(v.status, Status::Fail, "{ctx}: {v:?}");
            let subsystem = site.split("::").next().unwrap();
            assert_eq!(v.subsystem, subsystem, "{ctx}: wrong subsystem: {v:?}");
            assert!(
                v.detail.contains(site),
                "{ctx}: verdict must name the site: {v:?}"
            );
            assert_eq!(d.crash_site(), Some(site), "{ctx}: wrong flight site");
        }
    }
}

/// No false positives: every clean-pool configuration diagnoses all-PASS
/// with the trailing `Unmount` event witnessing the clean shutdown.
#[test]
fn clean_pools_pass_every_check() {
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        for write_behind in [false, true] {
            for buckets in [PRESIZED_BUCKETS, SPLITTING_BUCKETS] {
                let ctx = format!("wb={write_behind} buckets={buckets} ({mode:?})");
                let machine = Machine::chameleon();
                let dev =
                    PmemDevice::new(Arc::clone(&machine), DEVICE_BYTES, PersistenceMode::Fast);
                let dev_in = Arc::clone(&dev);
                let o = opts(write_behind, buckets);
                run_world_mode(Arc::clone(&machine), 1, mode, move |comm| {
                    let mut pmem = Pmem::with_options(o.clone());
                    pmem.mmap(MmapTarget::DevDax(&dev_in), &comm).unwrap();
                    store_keys(&pmem, 0, 80).unwrap();
                    pmem.munmap().unwrap();
                });
                let d = diagnose(&dev).unwrap_or_else(|e| panic!("{ctx}: diagnose failed: {e}"));
                for v in &d.verdicts {
                    assert_ne!(v.status, Status::Fail, "{ctx}: false positive: {v:?}");
                }
                assert_eq!(verdict(&d, "clean-shutdown").status, Status::Pass, "{ctx}");
                assert_eq!(d.crash_site(), None, "{ctx}: no fail point ever fired");
                assert_eq!(
                    d.flight.last().and_then(|e| e.event()),
                    Some(EventCode::Unmount),
                    "{ctx}: last flight event must be the unmount"
                );
            }
        }
    }
}

/// The other layout: hierarchical-files datasets live in a simulated FS,
/// not a raw pool namespace — the doctor must reject the device as "not a
/// pool" instead of inventing verdicts about filesystem blocks.
#[test]
fn hierarchical_dataset_is_rejected_not_misdiagnosed() {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), DEVICE_BYTES, PersistenceMode::Fast);
    let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::Fs { fs: &fs, dir: "/d" }, &comm)
        .unwrap();
    pmem.store_scalar("x", 7u64).unwrap();
    pmem.munmap().unwrap();

    let err = diagnose(&dev).unwrap_err();
    assert!(
        err.contains("not a pmemcpy pool image"),
        "unexpected error: {err}"
    );
}
