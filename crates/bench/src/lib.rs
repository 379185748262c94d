//! # pmemcpy-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper:
//!
//! * **Figure 6** (writes) / **Figure 7** (reads): `sweep` runs the §4.1
//!   3-D domain workload through every library at 8–48 ranks; `report`
//!   renders tables and charts and checks the paper's qualitative claims.
//! * Every `figures` command is one row of the `experiments` table, run by
//!   its one loop.
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
pub mod experiments;
pub mod json;
pub mod report;
pub mod sweep;

pub use experiments::{Ctx, Experiment, TABLE};
pub use report::{
    check_shape, render_checks, render_phase_breakdown, render_waterfall, Outcome, RunReport,
    ShapeCheck, REPORT_SCHEMA,
};
pub use sweep::{run_cell, run_storm_cell, CellConfig, CellResult, Direction, StormShape};

/// The paper's x-axis.
pub const PAPER_PROCS: [u64; 5] = [8, 16, 24, 32, 48];

/// Run one full figure (all libraries × `procs`) on the paper's testbed:
/// the `fig6` / `fig7` row of the experiment table, every cell with a
/// fresh metrics registry installed.
pub fn run_figure(direction: Direction, procs: &[u64], real_bytes: u64) -> RunReport {
    let name = match direction {
        Direction::Write => "fig6",
        Direction::Read => "fig7",
    };
    let exp = experiments::find(name).expect("table row");
    let ctx = Ctx {
        procs: procs.to_vec(),
        real_bytes,
        storm_keys: 0,
        machine: pmem_sim::MachineConfig::chameleon_skylake(),
        profiles: vec![],
    };
    experiments::measure(exp, &ctx).expect("domain cells panic rather than fail")
}
