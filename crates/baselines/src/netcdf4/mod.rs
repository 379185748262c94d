//! NetCDF-4-like parallel I/O: an HDF5 container written and read by
//! [`crate::contiguous`]'s two-phase job, with a pre-fill pass over every
//! variable unless `NC_NOFILL` is set, as the evaluation does (§4.1: *"we
//! make sure to call nc_def_var_fill() with NC_NOFILL ... which causes
//! significant overhead for write workloads"*).

mod hdf5_vol;

use crate::contiguous;
use crate::pio::{PioLibrary, Result, Target};
use mpi_sim::Comm;
use workloads::BlockDecomp;

/// The NetCDF-4-like library.
#[derive(Debug, Clone, Copy)]
pub struct Netcdf4Like {
    /// Emulates `nc_def_var_fill(NC_NOFILL)`: when false, every variable's
    /// extent is pre-written with the fill value (the classic default).
    pub nofill: bool,
}

impl Default for Netcdf4Like {
    fn default() -> Self {
        // The paper's configuration.
        Netcdf4Like { nofill: true }
    }
}

impl PioLibrary for Netcdf4Like {
    fn name(&self) -> &'static str {
        "NetCDF"
    }

    fn write(
        &self,
        comm: &Comm,
        target: &Target,
        decomp: &BlockDecomp,
        vars: &[String],
        blocks: &[Vec<f64>],
    ) -> Result<()> {
        let fill = (!self.nofill).then_some(9.969_209_968_386_869e36); // NC_FILL_DOUBLE
        let fs = target.fs(self.name())?;
        contiguous::write::<hdf5_vol::Hdf5>(comm, fs, fill, decomp, vars, blocks)
    }

    fn read(
        &self,
        comm: &Comm,
        target: &Target,
        decomp: &BlockDecomp,
        vars: &[String],
    ) -> Result<Vec<Vec<f64>>> {
        contiguous::read::<hdf5_vol::Hdf5>(comm, target.fs(self.name())?, decomp, vars)
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

    fn round_trip(nofill: bool, nprocs: usize) {
        let dev = PmemDevice::new(Machine::chameleon(), 64 << 20, PersistenceMode::Fast);
        let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
        run_world(Arc::clone(dev.machine()), nprocs, move |comm| {
            let decomp = BlockDecomp::new(&[12, 12, 12], comm.size() as u64);
            let vars: Vec<String> = ["T", "P"].iter().map(|s| s.to_string()).collect();
            let blocks: Vec<Vec<f64>> = (0..vars.len())
                .map(|v| workloads::generate_block(&decomp, v, comm.rank() as u64))
                .collect();
            let target = Target::Fs {
                fs: Arc::clone(&fs),
                path: "/file.nc4".into(),
            };
            let lib = Netcdf4Like { nofill };
            lib.write(&comm, &target, &decomp, &vars, &blocks).unwrap();
            comm.barrier();
            let back = lib.read(&comm, &target, &decomp, &vars).unwrap();
            for (v, blk) in back.iter().enumerate() {
                assert_eq!(
                    workloads::verify_block(&decomp, v, comm.rank() as u64, blk),
                    0,
                    "var {v}"
                );
            }
        });
    }

    #[test]
    fn nofill_round_trips() {
        round_trip(true, 4);
    }

    #[test]
    fn fill_mode_round_trips_too() {
        round_trip(false, 3);
    }

    #[test]
    fn fill_mode_writes_more_media_bytes() {
        let volume = |nofill: bool| -> u64 {
            let dev = PmemDevice::new(Machine::chameleon(), 64 << 20, PersistenceMode::Fast);
            let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
            let machine = Arc::clone(dev.machine());
            run_world(Arc::clone(&machine), 2, move |comm| {
                let decomp = BlockDecomp::new(&[8, 8, 8], 2);
                let vars = vec!["x".to_string()];
                let blocks = vec![workloads::generate_block(&decomp, 0, comm.rank() as u64)];
                let target = Target::Fs {
                    fs: Arc::clone(&fs),
                    path: "/f.nc4".into(),
                };
                Netcdf4Like { nofill }
                    .write(&comm, &target, &decomp, &vars, &blocks)
                    .unwrap();
            });
            machine.stats.snapshot().pmem_bytes_written
        };
        let with_fill = volume(false);
        let without = volume(true);
        assert!(
            with_fill >= without + 8 * 8 * 8 * 8,
            "fill pass missing: {with_fill} vs {without}"
        );
    }
}
