//! Cross-run bit-reproducibility under the deterministic rank scheduler.
//!
//! Every multi-rank configuration must produce *byte-identical* results when
//! run twice in the same process — virtual times, hardware counters
//! (page faults included), rendered CSV and exported Chrome-trace JSON.
//! The scheduler serializes ranks in (virtual time, rank id) order, so the
//! outcome is a pure function of the workload, independent of the host's
//! core count or ambient load. For the same reason these assertions hold
//! unchanged under `cargo test -- --test-threads=1` and under the default
//! parallel harness: sibling test threads only add load, which cannot
//! reorder a token-scheduled world.

use baselines::PmemcpyLib;
use mpi_sim::run_world;
use pmem_sim::{
    chrome_trace_json, CollectingSink, Machine, MachineConfig, PersistenceMode, PmemDevice,
    SimTime, StatsSnapshot,
};
use pmemcpy_bench::experiments::{csv, find};
use pmemcpy_bench::{run_cell, run_figure, CellConfig, Direction};
use std::sync::Arc;

fn headline_cfg(nprocs: u64) -> CellConfig {
    CellConfig::paper_on(nprocs, 2 << 20, MachineConfig::chameleon_skylake())
}

/// Figure 6's 24-rank column, rendered to CSV twice: identical bytes.
#[test]
fn fig6_headline_column_csv_is_bit_identical_across_runs() {
    let fig6 = find("fig6").unwrap();
    let run = || csv(fig6, &run_figure(Direction::Write, &[24], 1 << 20));
    assert_eq!(run(), run(), "fig6 CSV bytes differ between runs");
}

/// The paper's headline cell (PMCPY-A, 24 ranks, writes), traced twice:
/// job time, every counter (page faults included) and the exported
/// Chrome-trace JSON must match byte for byte.
#[test]
fn fig6_headline_cell_trace_json_and_counters_are_bit_identical() {
    let cfg = headline_cfg(24);
    let lanes: Vec<(u64, String)> = (0..24).map(|r| (r, format!("rank {r}"))).collect();
    let run = || {
        let sink = CollectingSink::new();
        let cell = run_cell(
            &PmemcpyLib::variant_a(),
            Direction::Write,
            &cfg,
            Some(sink.clone()),
            None,
        );
        (cell, chrome_trace_json(&sink.take(), &lanes))
    };
    let (cell_a, json_a) = run();
    let (cell_b, json_b) = run();
    assert_eq!(cell_a.time, cell_b.time, "job time differs between runs");
    assert_eq!(
        cell_a.stats, cell_b.stats,
        "counters (incl. page faults) differ between runs"
    );
    assert_eq!(json_a, json_b, "Chrome-trace JSON differs between runs");
}

/// The 8-rank read-back cell (untimed write pass, then timed verified
/// reads) twice: time, counters and the zero-mismatch verdict must agree.
#[test]
fn eight_rank_read_back_is_bit_identical_across_runs() {
    let cfg = headline_cfg(8);
    let a = run_cell(&PmemcpyLib::variant_a(), Direction::Read, &cfg, None, None);
    let b = run_cell(&PmemcpyLib::variant_a(), Direction::Read, &cfg, None, None);
    assert_eq!(a.mismatches, 0, "read-back corrupted data");
    assert_eq!(a.mismatches, b.mismatches);
    assert_eq!(a.time, b.time, "read-back job time differs between runs");
    assert_eq!(a.stats, b.stats, "read-back counters differ between runs");
}

/// Per-rank virtual completion times under bandwidth contention: all eight
/// ranks stream into one device, so each rank's finish time depends on the
/// order the shared-bandwidth calendar served them — exactly what the
/// deterministic scheduler pins down.
#[test]
fn per_rank_virtual_times_are_bit_identical_under_contention() {
    fn contended_run() -> (Vec<SimTime>, StatsSnapshot) {
        let machine = Machine::chameleon();
        let device = PmemDevice::new(Arc::clone(&machine), 1 << 20, PersistenceMode::Fast);
        let times = run_world(Arc::clone(&machine), 8, move |comm| {
            let rank = comm.rank();
            let data = vec![rank as u8; 4096];
            for i in 0..16 {
                device.write(comm.clock(), (rank * 16 + i) * 4096, &data);
            }
            comm.barrier();
            comm.now()
        });
        (times, machine.stats.snapshot())
    }
    let (times_a, stats_a) = contended_run();
    let (times_b, stats_b) = contended_run();
    assert_eq!(times_a, times_b, "per-rank virtual times differ");
    assert_eq!(stats_a, stats_b, "machine counters differ");
}
