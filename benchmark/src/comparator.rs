//! The comparator pass of the traced run: the other libraries of Fig. 6/7
//! through the same 24-rank job as the domain cells, at a smaller real
//! volume. This is about *accuracy*, not speed: the ratios are what the model
//! says and are printed beside what the paper reports. The model has no
//! hardware validation — no number here is an error figure.

use crate::layers::Values;
use crate::workloads::domain::{run_library, Direction};
use crate::workloads::Iteration;
use baselines::{AdiosLike, Netcdf4Like, PioLibrary, PmemcpyLib, PnetcdfLike};
use pmem_sim::MetricsSnapshot;
use std::sync::Arc;

/// Real bytes of every comparator cell (modelled: the paper's 40 GB).
pub const REAL_BYTES: u64 = 16 << 20;

/// What the paper reports at 24 ranks, for the printout.
pub const PAPER_REFERENCE: &str = "paper, 24 ranks: PMCPY-A beats ADIOS by >=1.15x and \
NetCDF/pNetCDF by ~2.5x on writes (Fig. 6), by ~2x and ~5x on reads (Fig. 7); \
MAP_SYNC (PMCPY-B) is the slower of the two pMEMCPY curves. The model is unvalidated \
against hardware.";

/// Write and read virtual seconds of one library, and its write-side registry.
fn both(lib: Arc<dyn PioLibrary>, it: &mut Iteration) -> (f64, f64, MetricsSnapshot) {
    let (write_s, snapshot) = run_library(Arc::clone(&lib), Direction::Write, REAL_BYTES, it);
    let (read_s, _) = run_library(lib, Direction::Read, REAL_BYTES, it);
    (write_s, read_s, snapshot)
}

/// Run the pass; failed calls and verification mismatches count in `it`.
pub fn run(v: &mut Values, it: &mut Iteration) {
    let (a_write, a_read, _) = both(Arc::new(PmemcpyLib::variant_a()), it);
    // (metric prefix, ratio prefix if the issue names one, library)
    let others: [(&str, Option<&str>, Arc<dyn PioLibrary>); 4] = [
        (
            "adios",
            Some("adios_over_a"),
            Arc::new(AdiosLike::default()),
        ),
        (
            "netcdf",
            Some("netcdf_over_a"),
            Arc::new(Netcdf4Like::default()),
        ),
        ("pnetcdf", None, Arc::new(PnetcdfLike)),
        (
            "pmcpy_b",
            Some("b_over_a"),
            Arc::new(PmemcpyLib::variant_b()),
        ),
    ];
    for (name, over, lib) in others {
        let (write_s, read_s, snapshot) = both(lib, it);
        v.set(&format!("baselines.{name}.write_sim_s"), write_s);
        v.set(&format!("baselines.{name}.read_sim_s"), read_s);
        if let Some(over) = over {
            v.set(&format!("baselines.{over}.write_ratio"), write_s / a_write);
            v.set(&format!("baselines.{over}.read_ratio"), read_s / a_read);
        }
        // The costs pMEMCPY exists to avoid: ADIOS stages every byte in
        // DRAM, NetCDF rearranges every byte between ranks.
        match name {
            "adios" => v.set(
                "baselines.stage_bytes",
                snapshot.counter("stage.bytes") as f64,
            ),
            "netcdf" => v.set(
                "baselines.rearrange_bytes",
                snapshot.counter("rearrange.bytes") as f64,
            ),
            _ => {}
        }
    }
}
