//! The paper's qualitative claims, asserted as tests at reduced scale.
//!
//! These run the Figure 6/7 harness with a smaller real volume (timing is
//! virtual, so the modelled 40 GB arithmetic is unchanged) and assert the
//! §4.1 claims: who wins, in which direction, and the scaling shape.

use pmemcpy_bench::{check_shape, render_checks, run_figure, Direction};

const REAL_BYTES: u64 = 8 << 20; // 8 MB real; modelled 40 GB

#[test]
fn figure6_write_shape_holds() {
    let fig = run_figure(Direction::Write, &[8, 24, 48], REAL_BYTES);
    let checks = check_shape(&fig, Direction::Write);
    assert!(!checks.is_empty());
    assert!(
        checks.iter().all(|c| c.pass),
        "Figure 6 shape violated:\n{}\n{}",
        render_checks(&checks),
        fig.table("measured")
    );
    // Correctness rider: every cell moved the full modelled volume to PMEM.
    for cell in fig.cells() {
        assert!(
            cell.stats.pmem_bytes_written >= 39 << 30,
            "{} at {} wrote only {} bytes",
            cell.library,
            cell.nprocs,
            cell.stats.pmem_bytes_written
        );
    }
}

#[test]
fn figure7_read_shape_holds() {
    let fig = run_figure(Direction::Read, &[8, 24, 48], REAL_BYTES);
    let checks = check_shape(&fig, Direction::Read);
    assert!(!checks.is_empty());
    assert!(
        checks.iter().all(|c| c.pass),
        "Figure 7 shape violated:\n{}\n{}",
        render_checks(&checks),
        fig.table("measured")
    );
    // All reads verified bit-exactly inside the harness.
    for cell in fig.cells() {
        assert_eq!(cell.mismatches, 0, "{} read corruption", cell.library);
    }
}

#[test]
fn zero_staging_separates_pmemcpy_from_adios() {
    // The structural claim behind the performance one: pMEMCPY performs no
    // DRAM staging copies; ADIOS stages every byte.
    let fig = run_figure(Direction::Write, &[8], REAL_BYTES);
    let pm = fig.get("PMCPY-A", 8).unwrap();
    let ad = fig.get("ADIOS", 8).unwrap();
    assert_eq!(pm.stats.dram_bytes_copied, 0, "pMEMCPY must not stage");
    assert!(
        ad.stats.dram_bytes_copied >= 39 << 30,
        "ADIOS must stage every byte, staged {}",
        ad.stats.dram_bytes_copied
    );
}

#[test]
fn rearrangement_traffic_separates_contiguous_libraries() {
    // NetCDF/pNetCDF shuffle (nearly) all data over the fabric; ADIOS and
    // pMEMCPY exchange only coordination metadata.
    let fig = run_figure(Direction::Write, &[8], REAL_BYTES);
    let nc = fig.get("NetCDF", 8).unwrap();
    let ad = fig.get("ADIOS", 8).unwrap();
    let pm = fig.get("PMCPY-A", 8).unwrap();
    assert!(nc.stats.net_bytes > (20u64 << 30), "NetCDF shuffle missing");
    assert!(
        ad.stats.net_bytes < (1 << 30),
        "ADIOS should not shuffle data"
    );
    assert_eq!(pm.stats.net_bytes, 0, "pMEMCPY is communication-free");
}

#[test]
fn api_complexity_table_matches_paper_ordering() {
    use pmemcpy_bench::api_complexity::{api_table, measure, HDF5_EXAMPLE, PMEMCPY_EXAMPLE};
    let rows = api_table();
    let pm = rows.iter().find(|r| r.library == "pMEMCPY").unwrap();
    let h5 = rows.iter().find(|r| r.library == "HDF5").unwrap();
    let ad = rows.iter().find(|r| r.library == "ADIOS").unwrap();
    assert!(pm.measured.tokens < ad.measured.tokens);
    assert!(ad.measured.tokens < h5.measured.tokens);
    // The paper's headline: HDF5 needs ~2x the tokens of pMEMCPY.
    let ratio = h5.measured.tokens as f64 / pm.measured.tokens as f64;
    assert!(ratio > 1.6, "token ratio {ratio}");
    // Sanity on the lexer itself.
    assert!(measure(PMEMCPY_EXAMPLE).lines < measure(HDF5_EXAMPLE).lines);
}
