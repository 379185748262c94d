//! Device-profile integration tests: the profile table must leave the
//! default profile bit-identical to the committed CI baseline, while a put
//! flushes its record with the primitive its device declares.

use baselines::PmemcpyLib;
use mpi_sim::{Comm, SchedMode, World};
use pmdk_sim::layout::Superblock;
use pmem_sim::profile::{by_name, profile_names};
use pmem_sim::{FlushStrategy, Machine, MetricsRegistry, PersistenceMode, PmemDevice};
use pmemcpy::{MmapTarget, Options, Pmem};
use pmemcpy_bench::experiments::{find, measure, Ctx};
use pmemcpy_bench::{CellConfig, Direction};
use std::sync::Arc;

fn profile_machine(name: &str) -> pmem_sim::MachineConfig {
    by_name(name).expect("built-in profile")
}

/// The first index at which `a` and `b` differ, a missing element counting
/// as a difference.
fn first_difference<T: PartialEq>(a: &[T], b: &[T]) -> Option<usize> {
    (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))
}

/// Where `fresh` first departs from `baseline`: the first differing line
/// (one cell a line, named by its first three fields) and its first
/// differing `"field":value`, baseline against fresh.
fn drift(baseline: &str, fresh: &str) -> String {
    let [old, new] = [baseline, fresh].map(|text| text.split('\n').collect::<Vec<_>>());
    let i = first_difference(&old, &new).expect("the reports differ");
    let [old, new] = [old, new].map(|lines| {
        let line = lines.get(i).unwrap_or(&"<none>");
        line.split(',').collect::<Vec<_>>()
    });
    let j = first_difference(&old, &new).expect("the lines differ");
    let at = |fields: &[&str]| fields.get(j).unwrap_or(&"<none>").to_string();
    format!(
        "  line {}, cell {}\n  field {} (baseline) vs {} (fresh)",
        i + 1,
        old[..old.len().min(3)].join(","),
        at(&old),
        at(&new)
    )
}

/// A drifted report is named by its first differing cell and field: a
/// value that moved, and a field the fresh report lost.
#[test]
fn a_drift_names_its_cell_and_field() {
    let baseline = include_str!("../../../results/ci_baseline/BENCH_fig6_wb.json");
    for (fresh, cell, field) in [
        (
            baseline.replace(
                r#""virtual_time_ns":5406306042"#,
                r#""virtual_time_ns":5406306043"#,
            ),
            r#"line 7, cell {"library":"PMCPY-WB","direction":"write","nprocs":24"#,
            r#"field "virtual_time_ns":5406306042 (baseline) vs "virtual_time_ns":5406306043 (fresh)"#,
        ),
        (
            baseline.replacen(r#""device_profile":"optane-gen1","#, "", 1),
            r#"line 6, cell {"library":"PMCPY-A","direction":"write","nprocs":24"#,
            r#"field "device_profile":"optane-gen1" (baseline) vs "flush_strategy":"clwb" (fresh)"#,
        ),
    ] {
        let report = drift(baseline, &fresh);
        assert!(report.contains(cell) && report.contains(field), "{report}");
    }
}

/// The experiment table regenerates every committed
/// `results/ci_baseline/BENCH_*.json` byte-for-byte, down to the JSON
/// serialization, straight from the library (no binary in between). The
/// contexts must match the flags of the CI perf-gate job: `--bytes 8
/// --procs 24 fig6 fig6-wb fig7`, `--storm-keys 16384 creation-storm`,
/// `--bytes 8 --procs 8 --profiles optane-gen1,cxl sweep-profiles`. All
/// five are checked before it fails, each drifted one named with the cell
/// and the field it first departs at.
#[test]
fn experiment_table_reproduces_ci_baselines() {
    let mut drifted = vec![];
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
        let fresh = measure(exp, &ctx).expect("cells run").to_json();
        if fresh != baseline {
            drifted.push(format!(
                "{command}: BENCH report drifted from {path}\n{}",
                drift(&baseline, &fresh)
            ));
        }
    }
    assert!(drifted.is_empty(), "{}", drifted.join("\n"));
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

/// A put flushes its record with its device's own primitive, whichever the
/// profile: one `ntstore` writeback a record on a streaming device, none on
/// a CLWB one, and no writeback at all on eADR. The superblock records the
/// profile the pool was made on.
#[test]
fn a_put_flushes_its_record_with_its_devices_primitive() {
    const KEYS: u64 = 8;
    for name in profile_names() {
        let config = profile_machine(name);
        let streams = config.needs_flush && config.flush_strategy == FlushStrategy::Ntstore;
        let machine = Machine::new(config);
        let registry = MetricsRegistry::new();
        machine.set_metrics(Arc::clone(&registry));
        let dev = PmemDevice::new(Arc::clone(&machine), 4 << 20, PersistenceMode::Fast);
        let comm = Comm::new(World::new(machine, 1), 0);
        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
        for i in 0..KEYS {
            pmem.store_scalar(&format!("key{i}"), i).unwrap();
        }
        pmem.munmap().unwrap();
        let hists = registry.snapshot().hists;
        let ntstores = hists.get("ntstore").map_or(0, |h| h.count);
        assert_eq!(ntstores, if streams { KEYS } else { 0 }, "{name}");
        assert_eq!(Superblock::read(dev.as_ref()).device_profile_name(), name);
    }
}

/// A cell's virtual time is identical under both scheduler disciplines, on
/// the default profile and on one whose puts stream their records.
#[test]
fn a_write_cell_is_scheduler_independent() {
    for profile in ["optane-gen1", "cxl"] {
        let run = |sched: SchedMode| {
            let mut cfg = CellConfig::paper_on(4, 1 << 20, profile_machine(profile));
            cfg.sched = sched;
            pmemcpy_bench::run_cell(&PmemcpyLib::variant_a(), Direction::Write, &cfg, None, None)
        };
        let det = run(SchedMode::Deterministic);
        let free = run(SchedMode::FreeThreaded);
        assert_eq!(
            det.time, free.time,
            "{profile} virtual time drifted across scheds"
        );
    }
}
