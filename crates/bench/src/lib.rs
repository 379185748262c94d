//! # pmemcpy-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper:
//!
//! * **Figure 6** (writes) / **Figure 7** (reads): `sweep` runs the §4.1
//!   3-D domain workload through every library at 8–48 ranks; `report`
//!   renders tables, charts and CSVs and checks the paper's qualitative
//!   claims.
//! * **§3 API complexity table**: `api_complexity` recounts the paper's
//!   example programs.
//! * **§4 testbed table**: the machine constants are
//!   [`pmem_sim::MachineConfig::chameleon_skylake`].
//!
//! Run `cargo run -p pmemcpy-bench --bin figures -- all` to regenerate
//! everything; per-component microbenchmarks on both clocks live in the
//! separate `benchmark/` package (`benchmark/run.sh --trace`).

pub mod api_complexity;
pub mod doctor;
pub mod json;
pub mod report;
pub mod sweep;

pub use report::{
    check_fig6_shape, check_fig7_shape, render_checks, render_phase_breakdown, render_waterfall,
    Figure, RunReport, ShapeCheck, REPORT_SCHEMA,
};
pub use sweep::{run_cell, run_cell_observed, run_cell_traced, CellConfig, CellResult, Direction};

use baselines::figure_lineup;
use pmem_sim::MetricsRegistry;

/// The paper's x-axis.
pub const PAPER_PROCS: [u64; 5] = [8, 16, 24, 32, 48];

/// Run one full figure (all libraries × all process counts).
pub fn run_figure(direction: Direction, procs: &[u64], real_bytes: u64) -> Figure {
    run_figure_reported(direction, procs, real_bytes).0
}

/// Like [`run_figure`], but every cell runs with a fresh metrics registry
/// installed, and the cells are additionally folded into a [`RunReport`]
/// ready for BENCH JSON export. Metrics only read the virtual clocks, so
/// the figure (times, CSV) is identical to an unobserved run.
pub fn run_figure_reported(
    direction: Direction,
    procs: &[u64],
    real_bytes: u64,
) -> (Figure, RunReport) {
    run_figure_reported_on(
        direction,
        procs,
        real_bytes,
        &pmem_sim::MachineConfig::chameleon_skylake(),
    )
}

/// [`run_figure_reported`] on an explicit machine template (device-profile
/// sweeps; see `pmem_sim::profile`).
pub fn run_figure_reported_on(
    direction: Direction,
    procs: &[u64],
    real_bytes: u64,
    machine: &pmem_sim::MachineConfig,
) -> (Figure, RunReport) {
    let libs = figure_lineup();
    let mut cells = vec![];
    for &p in procs {
        let cfg = CellConfig::paper_on(p, real_bytes, machine.clone());
        for lib in &libs {
            let registry = MetricsRegistry::new();
            cells.push(run_cell_observed(
                lib.as_ref(),
                direction,
                &cfg,
                None,
                Some(registry),
            ));
        }
    }
    let report = RunReport {
        name: match direction {
            Direction::Write => "fig6_writes".to_string(),
            Direction::Read => "fig7_reads".to_string(),
        },
        real_bytes,
        cells: cells.clone(),
    };
    let figure = Figure {
        title: match direction {
            Direction::Write => format!(
                "Figure 6: writing a 40 GB (modelled) 3-D domain to PMEM ({} MB real)",
                real_bytes >> 20
            ),
            Direction::Read => format!(
                "Figure 7: reading a 40 GB (modelled) 3-D domain from PMEM ({} MB real)",
                real_bytes >> 20
            ),
        },
        direction,
        procs: procs.to_vec(),
        libraries: libs.iter().map(|l| l.name().to_string()).collect(),
        cells,
    };
    (figure, report)
}
