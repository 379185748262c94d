//! pNetCDF-like parallel I/O: CDF-5 container, contiguous layout, collective
//! MPI-IO — the second rearrangement-based baseline of the evaluation.
//! Structurally it shares the two-phase data path with the NetCDF-4
//! baseline (the paper's Figures 6–7 show the two nearly overlapping); the
//! differences are the single packed CDF header versus HDF5's per-dataset
//! object headers and alignment.

mod header;

use crate::contiguous::{read_var_contiguous, write_var_contiguous};
use crate::pio::{PioError, PioLibrary, Result, Target};
use header::{decode_header, encode_header};
use mpi_sim::{Comm, MpiFile};
use simfs::SimFs;
use std::sync::Arc;
use workloads::BlockDecomp;

/// The pNetCDF-like library.
#[derive(Debug, Default, Clone, Copy)]
pub struct PnetcdfLike;

impl PnetcdfLike {
    fn fs_of(target: &Target) -> Result<(&Arc<SimFs>, &str)> {
        match target {
            Target::Fs { fs, path } => Ok((fs, path)),
            Target::DevDax(_) => Err(PioError::Format("pNetCDF needs a filesystem target".into())),
        }
    }
}

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
        let (fs, path) = Self::fs_of(target)?;
        let file = MpiFile::create(comm, fs, path)?;
        // ncmpi_enddef: rank 0 writes the header, everyone learns placements.
        let header = if comm.rank() == 0 {
            let (bytes, _) = encode_header(&decomp.global_dims, vars);
            file.write_at(0, &bytes)?;
            Some(bytes)
        } else {
            None
        };
        let bytes = comm.bcast(0, header.as_deref());
        let (_, placements) = decode_header(&bytes)?;
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
        let (_, placements) = decode_header(&bytes)?;
        let mut out = Vec::with_capacity(vars.len());
        for name in vars {
            let p = placements
                .iter()
                .find(|p| &p.name == name)
                .ok_or_else(|| PioError::Format(format!("variable {name:?} not in file")))?;
            out.push(read_var_contiguous(comm, &file, decomp, p.data_offset)?);
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
