//! Emit a Perfetto-loadable virtual-time trace of an 8-rank 3-D domain
//! write (plus read-back and burst-buffer drain) through pMEMCPY.
//!
//! ```text
//! cargo run --release --example trace_viewer
//! ```
//!
//! The trace lands in `results/trace_viewer.json`; open it at
//! <https://ui.perfetto.dev> (or `chrome://tracing`). One lane per rank,
//! plus a `drain` lane for the asynchronous burst-buffer flush. All
//! timestamps are *simulated* nanoseconds — tracing never shifts them (the
//! numbers are the same with the sink off, and bit-reproducible run to
//! run). Perfetto aggregates the slices; this example prints no table.

use baselines::PmemcpyLib;
use pmem_sim::{chrome_trace_json, CollectingSink, MachineConfig, DRAIN_LANE};
use pmemcpy_bench::{run_cell, CellConfig, Direction};

fn main() {
    let nprocs = 8;
    let real_bytes = 8 << 20;
    let sink = CollectingSink::new();
    let cfg = CellConfig::paper_on(nprocs, real_bytes, MachineConfig::chameleon_skylake());

    // Timed write phase: every rank stores its block of the 3-D domain.
    let w = run_cell(
        &PmemcpyLib::variant_a(),
        Direction::Write,
        &cfg,
        Some(sink.clone()),
        None,
    );
    // Timed read phase on a fresh cell (same sink: spans accumulate).
    let r = run_cell(
        &PmemcpyLib::variant_a(),
        Direction::Read,
        &cfg,
        Some(sink.clone()),
        None,
    );
    assert_eq!(r.mismatches, 0, "read-back corrupted data");

    // A drain pass on a single-rank handle, to put the DRAIN_LANE on the
    // timeline too.
    drain_demo(&sink);

    let spans = sink.take();
    let mut lanes: Vec<(u64, String)> = (0..nprocs).map(|rk| (rk, format!("rank {rk}"))).collect();
    lanes.push((DRAIN_LANE, "drain (async)".to_string()));
    let json = chrome_trace_json(&spans, &lanes);

    std::fs::create_dir_all("results").expect("create results/");
    std::fs::write("results/trace_viewer.json", &json).expect("write trace");

    println!(
        "write {:.3}s   read {:.3}s   ({} spans)",
        w.time.as_secs_f64(),
        r.time.as_secs_f64(),
        spans.len()
    );
    println!("[wrote results/trace_viewer.json — open in https://ui.perfetto.dev]");
}

/// Store a few variables on one rank, then trace the asynchronous drain.
fn drain_demo(sink: &std::sync::Arc<CollectingSink>) {
    use mpi_sim::{Comm, World};
    use pmem_sim::{Machine, PersistenceMode, PmemDevice};
    use pmemcpy::{MmapTarget, Pmem};
    use simfs::{MountMode, SimFs};
    use std::sync::Arc;

    let machine = Machine::chameleon();
    machine.set_trace_sink(sink.clone());
    let device = PmemDevice::new(Arc::clone(&machine), 16 << 20, PersistenceMode::Fast);
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&device), &comm).unwrap();
    for v in 0..4 {
        pmem.store_slice(&format!("var{v}"), &vec![v as f64; 20_000])
            .unwrap();
    }
    let bb_dev = PmemDevice::new(Arc::clone(&machine), 16 << 20, PersistenceMode::Fast);
    let bb = SimFs::mount_all(bb_dev, MountMode::PageCache);
    let report = pmem.drain_to_storage(&bb, "/bb").unwrap();
    println!(
        "drain: {} keys, {} B in {:.3}s (own lane, app clock untouched)",
        report.keys,
        report.bytes,
        report.drain_time.as_secs_f64()
    );
    pmem.munmap().unwrap();
}
