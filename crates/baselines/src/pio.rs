//! The common parallel-I/O interface the evaluation harness drives.
//!
//! Every library in the paper's comparison (ADIOS, NetCDF-4, pNetCDF,
//! pMEMCPY) is exposed behind [`PioLibrary`], so Figures 6 and 7 are a loop
//! over implementations. The contract mirrors §4.1: a collective *write* of
//! each rank's 3-D blocks of every variable, and a *symmetric read* where
//! each rank reads back exactly the blocks it wrote.

use mpi_sim::Comm;
use pmem_sim::PmemDevice;
use simfs::SimFs;
use std::fmt;
use std::sync::Arc;
use workloads::BlockDecomp;

/// Where a library persists its data.
#[derive(Clone)]
pub enum Target {
    /// A DAX filesystem path (the POSIX/MPI-IO-based baselines).
    Fs { fs: Arc<SimFs>, path: String },
    /// A raw PMEM namespace (pMEMCPY's PMDK pool).
    DevDax(Arc<PmemDevice>),
}

impl fmt::Debug for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Target::Fs { path, .. } => write!(f, "Fs({path})"),
            Target::DevDax(_) => write!(f, "DevDax"),
        }
    }
}

/// Errors common to the baseline libraries.
#[derive(Debug)]
pub enum PioError {
    Fs(simfs::FsError),
    Serial(pserial::SerialError),
    Pmemcpy(String),
    Format(String),
}

impl fmt::Display for PioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PioError::Fs(e) => write!(f, "fs: {e}"),
            PioError::Serial(e) => write!(f, "serial: {e}"),
            PioError::Pmemcpy(m) => write!(f, "pmemcpy: {m}"),
            PioError::Format(m) => write!(f, "format: {m}"),
        }
    }
}

impl std::error::Error for PioError {}

impl From<simfs::FsError> for PioError {
    fn from(e: simfs::FsError) -> Self {
        PioError::Fs(e)
    }
}

impl From<pserial::SerialError> for PioError {
    fn from(e: pserial::SerialError) -> Self {
        PioError::Serial(e)
    }
}

pub type Result<T> = std::result::Result<T, PioError>;

/// A parallel I/O library under test.
pub trait PioLibrary: Send + Sync {
    /// Short name for tables ("ADIOS", "NetCDF", ...).
    fn name(&self) -> &'static str;

    /// Whether the harness must hand this library a raw
    /// [`Target::DevDax`] namespace instead of a [`Target::Fs`] path.
    fn needs_devdax(&self) -> bool {
        false
    }

    /// Collective write: `blocks[v]` is this rank's dense block of variable
    /// `vars[v]` under `decomp`. Runs from open to close (the paper's
    /// measured window).
    fn write(
        &self,
        comm: &Comm,
        target: &Target,
        decomp: &BlockDecomp,
        vars: &[String],
        blocks: &[Vec<f64>],
    ) -> Result<()>;

    /// Symmetric collective read: returns this rank's block of every
    /// variable, in `vars` order.
    fn read(
        &self,
        comm: &Comm,
        target: &Target,
        decomp: &BlockDecomp,
        vars: &[String],
    ) -> Result<Vec<Vec<f64>>>;
}

/// Convenience: f64 slice -> bytes (little-endian POD reinterpretation).
pub fn f64_bytes(data: &[f64]) -> &[u8] {
    workloads::as_bytes(data)
}

/// Convenience: bytes -> owned f64 vec.
pub fn bytes_to_f64(bytes: &[u8]) -> Vec<f64> {
    assert_eq!(bytes.len() % 8, 0);
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_byte_views_round_trip() {
        let data = vec![1.5, -2.25, 1e300];
        assert_eq!(bytes_to_f64(f64_bytes(&data)), data);
    }
}
