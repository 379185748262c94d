//! A miniature of the paper's evaluation: the same 3-D domain workload
//! through all five library configurations (ADIOS-, NetCDF-, pNetCDF-like,
//! PMCPY-A and PMCPY-B), with virtual times and structural counters.
//!
//! ```text
//! cargo run --release --example pio_shootout
//! ```
//!
//! For the full-scale Figure 6/7 reproduction use the benchmark harness:
//! `cargo run -p pmemcpy-bench --bin figures -- all`.

use baselines::figure_lineup;
use pmem_sim::MachineConfig;
use pmemcpy_bench::{run_cell, CellConfig, Direction};

fn main() {
    let nprocs = 24;
    let real_bytes = 16 << 20;
    println!("workload: 40 GB modelled (16 MB real), 10 variables, {nprocs} ranks\n");
    println!(
        "{:<10} {:>10} {:>10} {:>14} {:>14} {:>12}",
        "library", "write", "read", "staged(DRAM)", "shuffled(net)", "syscalls"
    );
    for lib in figure_lineup() {
        let cfg = CellConfig::paper_on(nprocs, real_bytes, MachineConfig::chameleon_skylake());
        let w = run_cell(lib.as_ref(), Direction::Write, &cfg, None, None);
        let r = run_cell(lib.as_ref(), Direction::Read, &cfg, None, None);
        assert_eq!(r.mismatches, 0, "{} corrupted data", lib.name());
        println!(
            "{:<10} {:>9.3}s {:>9.3}s {:>13}B {:>13}B {:>12}",
            lib.name(),
            w.time.as_secs_f64(),
            r.time.as_secs_f64(),
            human(w.stats.dram_bytes_copied),
            human(w.stats.net_bytes),
            w.stats.syscalls,
        );
    }
    println!("\nThe shape to notice (paper §4.1):");
    println!(" * PMCPY-A wins both directions: no staging copies, no shuffle.");
    println!(" * ADIOS trails by its DRAM staging pass.");
    println!(" * NetCDF/pNetCDF pay the two-phase rearrangement on the fabric.");
    println!(" * PMCPY-B (MAP_SYNC) gives the zero-copy win back.");
}

fn human(n: u64) -> String {
    match n {
        0..=9_999 => format!("{n}"),
        10_000..=9_999_999 => format!("{}K", n / 1000),
        10_000_000..=9_999_999_999 => format!("{}M", n / 1_000_000),
        _ => format!("{}G", n / 1_000_000_000),
    }
}
