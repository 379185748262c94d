//! NetCDF-4-like parallel I/O: HDF5 container, global linearization,
//! collective two-phase MPI-IO.
//!
//! The costs reproduced from the paper's analysis: a define phase with
//! collective metadata synchronization, a full data-rearrangement shuffle on
//! every write *and* read (contiguous layout), and — unless `NC_NOFILL` is
//! set, as the evaluation does — a pre-fill pass over every variable
//! (§4.1: *"we make sure to call nc_def_var_fill() with NC_NOFILL ... which
//! causes significant overhead for write workloads"*).

mod hdf5_vol;

use crate::contiguous::{fill_var, read_var_contiguous, write_var_contiguous, VarPlacement};
use crate::pio::{PioError, PioLibrary, Result, Target};
use hdf5_vol::{decode_header, encode_header, Dataset};
use mpi_sim::{Comm, MpiFile};
use simfs::SimFs;
use std::sync::Arc;
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

impl Netcdf4Like {
    fn fs_of(target: &Target) -> Result<(&Arc<SimFs>, &str)> {
        match target {
            Target::Fs { fs, path } => Ok((fs, path)),
            Target::DevDax(_) => Err(PioError::Format(
                "NetCDF-4 needs a filesystem target".into(),
            )),
        }
    }

    /// The define phase: rank 0 writes the HDF5 header; everyone receives
    /// the variable placements (the `nc_enddef` collective).
    fn define(
        comm: &Comm,
        file: &MpiFile,
        decomp: &BlockDecomp,
        vars: &[String],
    ) -> Result<Vec<VarPlacement>> {
        let header = if comm.rank() == 0 {
            let datasets: Vec<Dataset> = vars
                .iter()
                .map(|name| Dataset {
                    name: name.clone(),
                    global_dims: decomp.global_dims.clone(),
                })
                .collect();
            let (bytes, _) = encode_header(&datasets);
            file.write_at(0, &bytes)?;
            Some(bytes)
        } else {
            None
        };
        let bytes = comm.bcast(0, header.as_deref());
        let (_, placements) = decode_header(&bytes)?;
        Ok(placements)
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
        let (fs, path) = Self::fs_of(target)?;
        let file = MpiFile::create(comm, fs, path)?;
        let placements = Self::define(comm, &file, decomp, vars)?;
        if !self.nofill {
            for p in &placements {
                fill_var(comm, &file, decomp, p.data_offset, 9.969_209_968_386_869e36)?;
            }
        }
        for (v, p) in placements.iter().enumerate() {
            write_var_contiguous(comm, &file, decomp, p.data_offset, &blocks[v])?;
        }
        file.sync_all()?;
        file.close()?;
        Ok(())
    }

    fn read(
        &self,
        comm: &Comm,
        target: &Target,
        decomp: &BlockDecomp,
        vars: &[String],
    ) -> Result<Vec<Vec<f64>>> {
        let (fs, path) = Self::fs_of(target)?;
        let file = MpiFile::open(comm, fs, path)?;
        // Read + broadcast the header (every open parses the HDF5 metadata).
        let header = if comm.rank() == 0 {
            // Read just the header: start small and grow on truncation
            // (the header is ~1 KB for tens of variables).
            let fsize = fs.file_size(path)?;
            let mut take = 4096u64.min(fsize);
            loop {
                let mut buf = vec![0u8; take as usize];
                file.read_at(0, &mut buf)?;
                if decode_header(&buf).is_ok() || take == fsize {
                    break Some(buf);
                }
                take = (take * 2).min(fsize);
            }
        } else {
            None
        };
        let bytes = comm.bcast(0, header.as_deref());
        let (datasets, placements) = decode_header(&bytes)?;
        let mut out = Vec::with_capacity(vars.len());
        for name in vars {
            let idx = datasets
                .iter()
                .position(|d| &d.name == name)
                .ok_or_else(|| PioError::Format(format!("variable {name:?} not in file")))?;
            out.push(read_var_contiguous(
                comm,
                &file,
                decomp,
                placements[idx].data_offset,
            )?);
        }
        file.close()?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::run_world;
    use pmem_sim::{Machine, PersistenceMode, PmemDevice};
    use simfs::MountMode;

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
