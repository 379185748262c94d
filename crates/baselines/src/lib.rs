//! # baselines — the parallel I/O libraries pMEMCPY is evaluated against
//!
//! Architectural reimplementations of the comparison systems of §4.1,
//! faithful to the cost structure the paper attributes to each:
//!
//! | Library | Data layout | Data path |
//! |---|---|---|
//! | [`adios::AdiosLike`] | per-process BP groups | DRAM staging + independent POSIX |
//! | [`netcdf4::Netcdf4Like`] | HDF5 container, global linearization | two-phase collective MPI-IO |
//! | [`pnetcdf::PnetcdfLike`] | CDF-5 container, global linearization | two-phase collective MPI-IO |
//! | [`pmcpy::PmemcpyLib`] | PMDK pool + hashtable | direct-to-PMEM mmap (the paper's system) |
//!
//! All are driven through [`pio::PioLibrary`], so the evaluation figures are
//! a loop over implementations.

pub mod adios;
pub mod contiguous;
pub mod netcdf4;
pub mod pio;
pub mod pmcpy;
pub mod pnetcdf;

pub use adios::AdiosLike;
pub use netcdf4::Netcdf4Like;
pub use pio::{PioError, PioLibrary, Result, Target};
pub use pmcpy::PmemcpyLib;
pub use pnetcdf::PnetcdfLike;

/// The five configurations of Figures 6 and 7, in the paper's legend order.
pub fn figure_lineup() -> Vec<Box<dyn PioLibrary>> {
    vec![
        Box::new(AdiosLike::default()),
        Box::new(Netcdf4Like::default()),
        Box::new(PnetcdfLike),
        Box::new(PmemcpyLib::variant_a()),
        Box::new(PmemcpyLib::variant_b()),
    ]
}
