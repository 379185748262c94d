//! `pmemcpy-doctor` verdicts, end to end:
//!
//! 1. a pool crashed at a crash point inside a WAL append, a checkpoint
//!    drain, a truncate, the step that begins a split, and inside the recovery of
//!    such a crash gets a FAIL verdict naming its last flight
//!    event, plus the structural verdict that state implies — a busy lane
//!    FAILs `lanes` [tx], pending records are `wal-pending` INFO, a split in
//!    flight is `ht-split` INFO — under both scheduler modes;
//! 2. no false positives: every clean-pool `Options` combination
//!    (inline/write-behind × pre-sized/splitting) diagnoses all-PASS, with the
//!    trailing `Unmount` event as the clean-shutdown witness;
//! 3. the `demo-crash --at <k>` binary dumps the image at crash point `k`,
//!    and a `k` past the run exits 2 naming the run's count;
//! 4. a hierarchical-files dataset (the other layout — no pool on the
//!    device) is rejected gracefully rather than mis-diagnosed.
//!
//! The doctor never mounts or recovers: every assertion here runs against
//! the raw post-crash (or post-unmount) image.

mod support;

use mpi_sim::{run_world_mode, Comm, SchedMode, World};
use pmdk_sim::layout::{ENT_HLEN, ENT_KEY};
use pmem_sim::flight::EventCode::{
    self, CkptBegin, CkptEnd, Recovery, SplitBegin, TxBegin, TxCommit, WalAppend, WalTruncate,
};
use pmem_sim::{Machine, MetricsRegistry, PersistenceMode, PmemDevice};
use pmemcpy::{registry, MmapTarget, Options, Pmem, PmemCpyError};
use pmemcpy_bench::doctor::{diagnose, load_image, Diagnosis, Status};
use pserial::SerialError;
use simfs::{MountMode, SimFs};
use std::sync::Arc;
use support::{device_with, first_active, image_at, Timeline};

const DEVICE_BYTES: usize = 16 << 20;

/// Small table so the 80-key workload, clean or crashed, crosses the split
/// trigger quickly.
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

/// The crashed runs: `pmemcpy-doctor demo-crash`'s 80-key workload on a
/// splitting table, with a 1 MiB WAL on a 4 MiB device.
const CRASH_DEVICE_BYTES: usize = 4 << 20;

fn crash_opts(write_behind: bool) -> Options {
    Options {
        wal_capacity: 1 << 20,
        ..opts(write_behind, SPLITTING_BUCKETS)
    }
}

/// `run` on `dev` under scheduler `mode`, one rank, with the options a
/// crashed run uses; the interned pool is released afterwards.
fn run_on(dev: &Arc<PmemDevice>, mode: SchedMode, write_behind: bool, run: fn(&mut Pmem)) {
    let dev_in = Arc::clone(dev);
    run_world_mode(Arc::clone(dev.machine()), 1, mode, move |comm| {
        let mut pmem = Pmem::with_options(crash_opts(write_behind));
        pmem.mmap(MmapTarget::DevDax(&dev_in), &comm).unwrap();
        run(&mut pmem);
    });
    registry::release_pool(dev);
}

/// The demo workload after the mount: 80 keys and a clean unmap.
fn demo(pmem: &mut Pmem) {
    store_keys(pmem, 0, 80).unwrap();
    pmem.munmap().unwrap();
}

/// A mount of a crashed image — its recovery — and an unmap.
fn remount(pmem: &mut Pmem) {
    pmem.munmap().unwrap();
}

/// Which of the crash points between two flight events a crash takes.
#[derive(Clone, Copy)]
enum Pick {
    First,
    Last,
    /// The first whose image holds an ACTIVE lane: a transaction begins
    /// with no store, and its first count store makes its lane ACTIVE.
    FirstActive,
    /// The last whose image holds an ACTIVE lane: the transaction's stores
    /// are durable, its commit point is not.
    LastActive,
}

/// The crash point `pick` chooses of `run` on a device holding `image` (a
/// fresh one when empty) between the flight events `before` and `after`,
/// and the durable image there.
fn crash_between(
    image: &[u8],
    mode: SchedMode,
    write_behind: bool,
    run: fn(&mut Pmem),
    (before, after, pick): (&[EventCode], &[EventCode], Pick),
) -> Vec<u8> {
    let tracked = || match image {
        [] => PmemDevice::new(
            Machine::chameleon(),
            CRASH_DEVICE_BYTES,
            PersistenceMode::Tracked,
        ),
        image => device_with(image, PersistenceMode::Tracked),
    };
    let dev = tracked();
    let points =
        Timeline::of(&dev, || run_on(&dev, mode, write_behind, run)).between(before, after);
    assert!(
        !points.is_empty(),
        "no crash point between {before:?} and {after:?}"
    );
    let image_at = |k| {
        let dev = tracked();
        image_at(&dev, k, || run_on(&dev, mode, write_behind, run))
    };
    let k = match pick {
        Pick::First => points[0],
        Pick::Last => points[points.len() - 1],
        Pick::FirstActive => first_active(&points, |k| {
            device_with(&image_at(k), PersistenceMode::Fast)
        }),
        Pick::LastActive => first_active(points.iter().rev(), |k| {
            device_with(&image_at(k), PersistenceMode::Fast)
        }),
    };
    image_at(k)
}

fn verdict<'a>(d: &'a Diagnosis, check: &str) -> &'a pmemcpy_bench::doctor::Verdict {
    d.verdicts
        .iter()
        .find(|v| v.check == check)
        .unwrap_or_else(|| panic!("no {check} verdict in {:?}", d.verdicts))
}

/// A crash inside each structural step: the doctor must FAIL the image,
/// the clean-shutdown verdict must name the last flight event, and the
/// verdicts for lanes, the split and pending WAL records say what
/// was in flight.
#[test]
fn crashed_pools_fail_with_the_responsible_subsystem() {
    use Status::{Fail, Info, Pass};
    type Between = (&'static [EventCode], &'static [EventCode], Pick);
    type Implied = &'static [(&'static str, Status)];
    let step: Between = (&[TxBegin], &[TxCommit, SplitBegin], Pick::LastActive);
    // (step, write-behind, where, last flight event, verdicts it implies)
    let steps: [(&str, bool, Between, &str, Implied); 4] = [
        (
            "a WAL append",
            true,
            (&[WalAppend], &[WalAppend], Pick::First),
            "wal.append",
            &[("lanes", Pass), ("wal-pending", Info)],
        ),
        (
            "a drain",
            true,
            (&[CkptBegin, TxBegin], &[TxCommit], Pick::FirstActive),
            "tx.begin",
            &[("lanes", Fail), ("wal-pending", Info)],
        ),
        (
            "a truncate",
            true,
            (&[TxCommit], &[WalTruncate, CkptEnd], Pick::Last),
            "tx.commit",
            &[("lanes", Pass), ("wal-pending", Info)],
        ),
        (
            "the step that begins a split",
            false,
            step,
            "tx.begin",
            &[("lanes", Fail), ("ht-split", Info)],
        ),
    ];
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        let mut crashed: Vec<_> = (steps.iter())
            .map(|&(step, write_behind, at, last, implied)| {
                let image = crash_between(&[], mode, write_behind, demo, at);
                (step, image, last, implied)
            })
            .collect();
        // The mount of the mid-step image, crashed inside its lane recovery:
        // the rollback has restored the header, no split in flight, and has
        // not reset the lane.
        let mid_step = crash_between(&[], mode, false, demo, step);
        let recovering = crash_between(
            &mid_step,
            mode,
            false,
            remount,
            (&[], &[Recovery], Pick::Last),
        );
        let implied: Implied = &[("lanes", Fail), ("hashtable", Pass)];
        crashed.push((
            "the recovery of a crash mid-step",
            recovering,
            "tx.begin",
            implied,
        ));
        for (step, image, last, implied) in crashed {
            let ctx = format!("crash inside {step} ({mode:?})");
            let dev = device_with(&image, PersistenceMode::Fast);
            let d = diagnose(&dev).unwrap_or_else(|e| panic!("{ctx}: diagnose failed: {e}"));
            assert!(d.failed(), "{ctx}: crashed image must fail diagnosis");
            let v = verdict(&d, "clean-shutdown");
            assert_eq!((v.status, v.subsystem), (Fail, "pool"), "{ctx}: {v:?}");
            assert!(
                v.detail.ends_with(&format!("last flight event: {last}")),
                "{ctx}: the verdict names the last event: {v:?}"
            );
            for &(check, status) in implied {
                let v = verdict(&d, check);
                assert_eq!(v.status, status, "{ctx}: {v:?}");
            }
            assert_eq!(verdict(&d, "lanes").subsystem, "tx", "{ctx}");
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
                assert_eq!(
                    d.flight.last().and_then(|e| e.event()),
                    Some(EventCode::Unmount),
                    "{ctx}: last flight event must be the unmount"
                );
            }
        }
    }
}

/// `pmemcpy-doctor demo-crash --at <k>`: a point inside the demo dumps an
/// image that FAILs (the default expectation, so exit 0); a point past the
/// run exits 2 naming the run's crash-point count.
#[test]
fn demo_crash_keeps_the_image_at_its_crash_point() {
    let image = std::env::temp_dir().join(format!("doctor_demo_crash_{}.img", std::process::id()));
    let demo_crash = |k: usize| {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_pmemcpy-doctor"))
            .args([
                "demo-crash",
                "--at",
                &k.to_string(),
                "--write-behind",
                "--image",
            ])
            .arg(&image)
            .output()
            .unwrap();
        (
            out.status.code(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (code, err) = demo_crash(300);
    assert_eq!(code, Some(0), "{err}");
    let points: usize = (err.split("crash point 300 of ").nth(1))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("no crash-point count in {err:?}"));
    let dumped = load_image(image.to_str().unwrap()).unwrap();
    assert!(diagnose(&dumped).unwrap().failed());
    std::fs::remove_file(&image).unwrap();

    let (code, err) = demo_crash(points);
    assert_eq!(code, Some(2), "{err}");
    assert!(
        err.contains(&format!("the workload has {points} crash points")),
        "{err}"
    );
    assert!(!image.exists(), "nothing is dumped past the run");
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

/// A record's entry that names no header length, or one past its value,
/// fails its get with a typed error before any load of the record, and
/// FAILs the doctor's `hashtable` verdict: the first by pMEMCPY's rule
/// (a `\0`-free key's record names its header), the second by the pool's
/// own walk, which also ends the chain there on a mount.
#[test]
fn an_entry_naming_no_header_or_one_past_its_value_fails_the_get_and_the_doctor() {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), DEVICE_BYTES, PersistenceMode::Fast);
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    pmem.store_slice("rec", &[1.5f64; 128]).unwrap();
    pmem.munmap().unwrap();
    registry::release_pool(&dev);
    let clean = diagnose(&dev).unwrap();
    assert_eq!(verdict(&clean, "hashtable").status, Status::Pass);
    let rec = (clean.hashtable.as_ref().unwrap().lookup(b"rec").cloned()).unwrap();
    assert!(
        0 < rec.header_len && rec.header_len < rec.value_len,
        "{rec:?}"
    );
    let head_len = rec.value_off - b"rec".len() as u64 - ENT_KEY + ENT_HLEN;
    let image = dev.read_vec_untimed(0, DEVICE_BYTES);
    for head in [0, rec.value_len as u16 + 1] {
        let dev = device_with(&image, PersistenceMode::Fast);
        dev.write_untimed(head_len as usize, &head.to_le_bytes());
        let d = diagnose(&dev).unwrap();
        let v = verdict(&d, "hashtable");
        assert_eq!(v.status, Status::Fail, "header length {head}: {v:?}");

        let registry = MetricsRegistry::new();
        dev.machine().set_metrics(Arc::clone(&registry));
        let comm = Comm::new(World::new(Arc::clone(dev.machine()), 1), 0);
        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
        let err = pmem.load_slice::<f64>("rec").unwrap_err();
        let typed = match head {
            0 => matches!(err, PmemCpyError::Serial(SerialError::Corrupt(_))),
            _ => matches!(err, PmemCpyError::NotFound(_)),
        };
        assert!(typed, "header length {head}: {err:?}");
        let loads = registry
            .snapshot()
            .hists
            .get("pmem.read")
            .map_or(0, |h| h.count);
        assert_eq!(loads, 0, "header length {head}: the record was loaded");
        pmem.munmap().unwrap();
        registry::release_pool(&dev);
    }
}
