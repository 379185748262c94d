//! Device-profile integration tests: the pluggable-profile refactor must
//! leave the default profile bit-identical to the committed CI baseline,
//! while the autotuner picks the documented strategy per profile and a
//! pinned pool is indistinguishable from an autotuned one.

use baselines::PmemcpyLib;
use mpi_sim::SchedMode;
use pmdk_sim::layout::Superblock;
use pmem_sim::profile::{by_name, profile_id};
use pmem_sim::{autotune_flush, Clock, FlushStrategy, Machine, PersistenceMode, PmemDevice};
use pmemcpy::Options;
use pmemcpy_bench::experiments::{find, measure, Ctx};
use pmemcpy_bench::{CellConfig, Direction};

fn profile_machine(name: &str) -> pmem_sim::MachineConfig {
    by_name(name).expect("built-in profile").config()
}

/// The experiment table regenerates every committed
/// `results/ci_baseline/BENCH_*.json` byte-for-byte, down to the JSON
/// serialization, straight from the library (no binary in between). The
/// contexts must match the flags of the CI perf-gate job: `--bytes 8
/// --procs 24 fig6 fig6-wb fig7`, `--storm-keys 16384 creation-storm`,
/// `--bytes 8 --procs 8 --profiles optane-gen1,cxl sweep-profiles`.
#[test]
fn experiment_table_reproduces_ci_baselines() {
    for (command, procs) in [
        ("fig6", 24),
        ("fig6-wb", 24),
        ("fig7", 24),
        ("creation-storm", 24),
        ("sweep-profiles", 8),
    ] {
        let ctx = Ctx {
            procs: vec![procs],
            real_bytes: 8 << 20,
            storm_keys: 16_384,
            machine: profile_machine("optane-gen1"),
            profiles: vec![profile_machine("optane-gen1"), profile_machine("cxl")],
        };
        let exp = find(command).expect("table row");
        let bench = exp.bench.expect("a perf-gated row");
        let path = format!(
            "{}/../../results/ci_baseline/BENCH_{bench}.json",
            env!("CARGO_MANIFEST_DIR")
        );
        let baseline = std::fs::read_to_string(&path).expect("committed baseline present");
        let report = measure(exp, &ctx).expect("cells run");
        assert!(
            report.to_json() == baseline,
            "{command}: BENCH report drifted from {path}"
        );
    }
}

/// The harness asks the library which target it needs instead of guessing
/// from its label: a hashtable-layout pMEMCPY under any label gets the raw
/// namespace, and the hierarchical layout gets a filesystem directory even
/// when it is labelled like the figure's `PMCPY-A`.
#[test]
fn target_follows_the_library_not_its_label() {
    let cfg = CellConfig::paper_on(4, 1 << 20, profile_machine("optane-gen1"));
    for lib in [
        PmemcpyLib::custom("WB", Options::write_behind()),
        PmemcpyLib::variant_a().on_fs(),
    ] {
        pmemcpy_bench::run_cell(&lib, Direction::Write, &cfg, None, None);
        let read = pmemcpy_bench::run_cell(&lib, Direction::Read, &cfg, None, None);
        assert_eq!(read.mismatches, 0, "{} read back corrupted", lib.label);
    }
}

/// eADR persists at the fence: every flush is free, so the whole fig6 write
/// cell must be strictly faster than first-generation Optane.
#[test]
fn eadr_strictly_faster_than_gen1_on_fig6() {
    let run = |profile: &str| {
        let cfg = CellConfig::paper_on(8, 2 << 20, profile_machine(profile));
        pmemcpy_bench::run_cell(&PmemcpyLib::variant_a(), Direction::Write, &cfg, None, None).time
    };
    let gen1 = run("optane-gen1");
    let eadr = run("eadr");
    assert!(
        eadr < gen1,
        "eADR fig6 write {eadr:?} not strictly faster than optane-gen1 {gen1:?}"
    );
}

/// The autotuner's verdict is a pure function of the machine constants:
/// the documented pick per profile, stable across repeated probes, and the
/// pool superblock caches the same verdict at create time.
#[test]
fn autotuner_picks_expected_strategy_per_profile() {
    let expect = [
        ("optane-gen1", FlushStrategy::Clwb),
        ("optane-gen2", FlushStrategy::Ntstore),
        ("eadr", FlushStrategy::Clwb),
        ("cxl", FlushStrategy::Ntstore),
    ];
    for (name, strategy) in expect {
        let mc = profile_machine(name);
        for _ in 0..3 {
            assert_eq!(autotune_flush(&mc), strategy, "profile {name}");
        }
        let dev = PmemDevice::new(Machine::new(mc), 4 << 20, PersistenceMode::Fast);
        let pool = pmdk_sim::PmemPool::create(&Clock::new(), dev, "profiles").unwrap();
        assert_eq!(pool.flush_strategy(), strategy, "pool cache for {name}");
        assert_eq!(pool.device_profile_id(), profile_id(name));
        let sb = Superblock::read(pool.device().as_ref());
        assert_eq!(sb.device_profile_name(), name);
        assert_eq!(sb.flush_strategy_name(), strategy.name());
    }
}

/// The chosen strategy and the cell's virtual time are identical under both
/// scheduler disciplines — autotuning happens in per-rank virtual time, so
/// host interleaving cannot change the verdict.
#[test]
fn autotune_is_scheduler_independent() {
    for profile in ["optane-gen1", "cxl"] {
        let run = |sched: SchedMode| {
            let mut cfg = CellConfig::paper_on(4, 1 << 20, profile_machine(profile));
            cfg.sched = sched;
            pmemcpy_bench::run_cell(&PmemcpyLib::variant_a(), Direction::Write, &cfg, None, None)
        };
        let det = run(SchedMode::Deterministic);
        let free = run(SchedMode::FreeThreaded);
        assert_eq!(det.flush_strategy, free.flush_strategy, "{profile}");
        assert_eq!(
            det.time, free.time,
            "{profile} virtual time drifted across scheds"
        );
    }
}

/// Pinning `Options::flush_strategy` to the autotuner's own pick produces a
/// pool whose durable image and virtual time are identical to letting the
/// autotuner decide — the pin only changes *who* chose, never the outcome.
#[test]
fn pinned_matches_autotuned_pool_bit_for_bit() {
    for profile in ["optane-gen1", "cxl"] {
        let mc = profile_machine(profile);
        let auto_pick = autotune_flush(&mc);
        let run = |pin: Option<FlushStrategy>| {
            let lib = PmemcpyLib::custom(
                "PMCPY-PIN",
                Options {
                    flush_strategy: pin,
                    ..Options::default()
                },
            );
            let cfg = CellConfig::paper_on(4, 1 << 20, mc.clone());
            pmemcpy_bench::run_cell(&lib, Direction::Write, &cfg, None, None)
        };
        let auto = run(None);
        let pinned = run(Some(auto_pick));
        assert_eq!(
            auto.time, pinned.time,
            "{profile}: pinning the autotuned strategy changed the virtual time"
        );
        assert_eq!(auto.stats, pinned.stats, "{profile}: stats diverged");
        assert_eq!(auto.mismatches, 0);
        assert_eq!(pinned.mismatches, 0);

        // And the durable pool images are bit-identical: same workload, one
        // mount autotuned and one pinned to the tuner's pick.
        let image = |pin: Option<FlushStrategy>| {
            use mpi_sim::{Comm, World};
            use pmemcpy::{MmapTarget, Pmem};
            let machine = Machine::new(mc.clone());
            let dev = PmemDevice::new(
                std::sync::Arc::clone(&machine),
                4 << 20,
                PersistenceMode::Fast,
            );
            let comm = Comm::new(World::new(machine, 1), 0);
            let mut pmem = Pmem::with_options(Options {
                flush_strategy: pin,
                ..Options::default()
            });
            pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
            for i in 0..32u64 {
                pmem.store_scalar(&format!("key{i}"), i).unwrap();
            }
            pmem.munmap().unwrap();
            dev.read_vec_untimed(0, dev.size())
        };
        assert_eq!(
            image(None),
            image(Some(auto_pick)),
            "{profile}: pinned pool image differs from autotuned"
        );
    }
}
