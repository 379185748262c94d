//! pNetCDF-like parallel I/O: a CDF-5 container written and read by
//! [`crate::contiguous`]'s two-phase job (Figures 6–7 show it and NetCDF-4
//! nearly overlapping). Its header is one packed CDF header where HDF5 has
//! per-dataset object headers and alignment, and it never pre-fills.

mod header;

use crate::contiguous;
use crate::pio::{PioLibrary, Result, Target};
use mpi_sim::Comm;
use workloads::BlockDecomp;

/// The pNetCDF-like library.
#[derive(Debug, Default, Clone, Copy)]
pub struct PnetcdfLike;

impl PioLibrary for PnetcdfLike {
    fn name(&self) -> &'static str {
        "pNetCDF"
    }

    fn write(
        &self,
        comm: &Comm,
        target: &Target,
        decomp: &BlockDecomp,
        vars: &[String],
        blocks: &[Vec<f64>],
    ) -> Result<()> {
        let fs = target.fs(self.name())?;
        contiguous::write::<header::Cdf5>(comm, fs, None, decomp, vars, blocks)
    }

    fn read(
        &self,
        comm: &Comm,
        target: &Target,
        decomp: &BlockDecomp,
        vars: &[String],
    ) -> Result<Vec<Vec<f64>>> {
        contiguous::read::<header::Cdf5>(comm, target.fs(self.name())?, decomp, vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::run_world;
    use pmem_sim::{Machine, PersistenceMode, PmemDevice};
    use simfs::MountMode;
    use simfs::SimFs;
    use std::sync::Arc;

    #[test]
    fn round_trips_across_rank_counts() {
        for nprocs in [1usize, 3, 6] {
            let dev = PmemDevice::new(Machine::chameleon(), 64 << 20, PersistenceMode::Fast);
            let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
            run_world(Arc::clone(dev.machine()), nprocs, move |comm| {
                let decomp = BlockDecomp::new(&[10, 12, 14], comm.size() as u64);
                let vars: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
                let blocks: Vec<Vec<f64>> = (0..vars.len())
                    .map(|v| workloads::generate_block(&decomp, v, comm.rank() as u64))
                    .collect();
                let target = Target::Fs {
                    fs: Arc::clone(&fs),
                    path: "/file.nc".into(),
                };
                PnetcdfLike
                    .write(&comm, &target, &decomp, &vars, &blocks)
                    .unwrap();
                comm.barrier();
                let back = PnetcdfLike.read(&comm, &target, &decomp, &vars).unwrap();
                for (v, blk) in back.iter().enumerate() {
                    assert_eq!(
                        workloads::verify_block(&decomp, v, comm.rank() as u64, blk),
                        0
                    );
                }
            });
        }
    }

    #[test]
    fn header_is_cdf5_not_hdf5() {
        let dev = PmemDevice::new(Machine::chameleon(), 32 << 20, PersistenceMode::Fast);
        let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
        let fs2 = Arc::clone(&fs);
        run_world(Arc::clone(dev.machine()), 2, move |comm| {
            let decomp = BlockDecomp::new(&[8, 8, 8], 2);
            let vars = vec!["x".to_string()];
            let blocks = vec![workloads::generate_block(&decomp, 0, comm.rank() as u64)];
            let target = Target::Fs {
                fs: Arc::clone(&fs2),
                path: "/h.nc".into(),
            };
            PnetcdfLike
                .write(&comm, &target, &decomp, &vars, &blocks)
                .unwrap();
        });
        let clock = pmem_sim::Clock::new();
        let fd = fs.open(&clock, "/h.nc").unwrap();
        let mut magic = [0u8; 4];
        fs.read_at(&clock, fd, 0, &mut magic).unwrap();
        assert_eq!(&magic, b"CDF\x05");
    }
}
