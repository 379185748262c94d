//! # baselines — the parallel I/O libraries pMEMCPY is evaluated against
//!
//! Architectural reimplementations of the comparison systems of §4.1,
//! faithful to the cost structure the paper attributes to each:
//!
//! | Library | Data layout | Data path |
//! |---|---|---|
//! | [`adios::AdiosLike`] | per-process BP groups | DRAM staging + independent POSIX |
//! | [`netcdf4::Netcdf4Like`] | HDF5 container, global linearization | two-phase collective MPI-IO, optional pre-fill |
//! | [`pnetcdf::PnetcdfLike`] | CDF-5 container, global linearization | two-phase collective MPI-IO |
//! | [`pmcpy::PmemcpyLib`] | PMDK pool + hashtable | direct-to-PMEM mmap (the paper's system) |
//!
//! All are driven through [`pio::PioLibrary`], so the evaluation figures are
//! a loop over implementations. NetCDF-4 and pNetCDF are one driver,
//! `contiguous`, with two header codecs: each library is a name, a codec and
//! a fill value.

#![warn(unreachable_pub)]

mod adios;
mod contiguous;
mod netcdf4;
mod pio;
mod pmcpy;
mod pnetcdf;

pub use adios::AdiosLike;
pub use netcdf4::Netcdf4Like;
pub use pio::{PioLibrary, Target};
pub use pmcpy::PmemcpyLib;
pub use pnetcdf::PnetcdfLike;

/// The five configurations of Figures 6 and 7, in the paper's legend order.
pub fn figure_lineup() -> Vec<Box<dyn PioLibrary>> {
    vec![
        Box::new(AdiosLike),
        Box::new(Netcdf4Like::default()),
        Box::new(PnetcdfLike),
        Box::new(PmemcpyLib::variant_a()),
        Box::new(PmemcpyLib::variant_b()),
    ]
}
