//! The metrics layer's contract, end to end:
//!
//! 1. metrics must not perturb a figure cell — times, counters, and CSV
//!    bytes are identical with the registry on vs. off;
//! 2. under the deterministic scheduler the BENCH report JSON is
//!    bit-reproducible, and each rank's attributed phase time tiles its
//!    end-to-end virtual time exactly;
//! 3. media accounting: the raw serializer's write amplification on a 3-D
//!    write equals the analytic value (16 fixed header bytes per record).

use baselines::PmemcpyLib;
use pmem_sim::{MachineConfig, MetricsRegistry};
use pmemcpy::Options;
use pmemcpy_bench::experiments::{csv, find};
use pmemcpy_bench::{run_cell, CellConfig, Direction, Outcome, RunReport};

fn small_cfg(nprocs: u64) -> CellConfig {
    CellConfig::paper_on(nprocs, 2 << 20, MachineConfig::chameleon_skylake())
}

fn observed_cell(direction: Direction, nprocs: u64) -> pmemcpy_bench::CellResult {
    run_cell(
        &PmemcpyLib::variant_a(),
        direction,
        &small_cfg(nprocs),
        None,
        Some(MetricsRegistry::new()),
    )
}

fn report_of(cell: &pmemcpy_bench::CellResult) -> RunReport {
    RunReport {
        name: "repro".into(),
        real_bytes: 2 << 20,
        rows: vec![Outcome {
            key: format!("{},{}", cell.library, cell.nprocs),
            cells: vec![cell.clone()],
            storm: None,
        }],
    }
}

#[test]
fn metrics_do_not_perturb_an_eight_rank_cell() {
    for direction in [Direction::Write, Direction::Read] {
        let off = run_cell(
            &PmemcpyLib::variant_a(),
            direction,
            &small_cfg(8),
            None,
            None,
        );
        let on = observed_cell(direction, 8);
        assert_eq!(
            off.time, on.time,
            "{direction:?}: metrics perturbed virtual time"
        );
        assert_eq!(
            off.rank_times, on.rank_times,
            "{direction:?}: metrics perturbed per-rank times"
        );
        assert_eq!(
            off.stats, on.stats,
            "{direction:?}: metrics perturbed the counters"
        );
        assert!(
            !on.metrics.phases.is_empty(),
            "{direction:?}: observed run recorded no phases"
        );
        // The figure CSV is derived from (time, stats) only, so the rows —
        // today's fig6/fig7 bytes — are identical too.
        let csv_of =
            |cell: &pmemcpy_bench::CellResult| csv(find("fig6").unwrap(), &report_of(cell));
        assert_eq!(csv_of(&off), csv_of(&on), "{direction:?}: CSV bytes differ");
    }
}

#[test]
fn bench_report_is_bit_reproducible_and_tiles_every_rank() {
    for direction in [Direction::Write, Direction::Read] {
        let cells: Vec<_> = (0..2).map(|_| observed_cell(direction, 8)).collect();

        // Every rank's attributed phase time sums to its end-to-end virtual
        // time exactly: every charge and every wait lands in some phase.
        for (rank, t) in cells[0].rank_times.iter().enumerate() {
            assert_eq!(
                cells[0].metrics.lane_total(rank as u64),
                *t,
                "{direction:?}: rank {rank} attribution does not tile its timeline"
            );
        }

        let json: Vec<String> = cells.iter().map(|c| report_of(c).to_json()).collect();
        assert_eq!(
            json[0], json[1],
            "{direction:?}: BENCH JSON differs across identical deterministic runs"
        );
    }
}

#[test]
fn raw_serializer_write_amplification_is_analytic() {
    use mpi_sim::{Comm, World};
    use pmem_sim::{Machine, PersistenceMode, PmemDevice};
    use pmemcpy::{MmapTarget, Pmem};
    use std::sync::Arc;

    let machine = Machine::chameleon();
    let registry = MetricsRegistry::new();
    assert!(machine.set_metrics(Arc::clone(&registry)));
    let device = PmemDevice::new(Arc::clone(&machine), 16 << 20, PersistenceMode::Fast);
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let mut pmem = Pmem::with_options(Options {
        serializer: "raw".into(),
        ..Options::default()
    });
    pmem.mmap(MmapTarget::DevDax(&device), &comm).unwrap();

    let dims = [6u64, 4, 2];
    pmem.alloc::<f64>("rho", &dims).unwrap();
    let before = registry.snapshot();
    let block = vec![1.5f64; 48];
    pmem.store_block("rho", &block, &[0, 0, 0], &dims).unwrap();
    let after = registry.snapshot();

    // The 3-D block is 48 f64 = 384 payload bytes; the raw format adds
    // exactly 16 bytes (magic + pad + len) per record. chameleon's
    // byte_scale is 1, so the counters are in real bytes.
    let logical = after.counter("put.logical_bytes") - before.counter("put.logical_bytes");
    let media = after.counter("put.media_bytes") - before.counter("put.media_bytes");
    assert_eq!(logical, 384);
    assert_eq!(
        media,
        384 + 16,
        "raw write amplification off analytic value"
    );
    pmem.munmap().unwrap();
}
