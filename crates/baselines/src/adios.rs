//! ADIOS-like parallel I/O: BP format, per-process groups, independent I/O.
//!
//! Architecture reproduced from §2.1/§4.1: *"ADIOS stores data in the same
//! format as it was produced on a process-by-process basis"* — each rank
//! serializes its variables into a *process group* and writes it at a
//! coordinated offset with independent POSIX I/O; no data rearrangement.
//! The costs the paper attributes to ADIOS relative to pMEMCPY are the DRAM
//! staging pass on writes (*"serialize the cube into another DRAM buffer,
//! and then copy the serialized cube to the PMEM"*) and the extra
//! PMEM→DRAM copy on reads.

use crate::pio::{bytes_to_f64, f64_bytes, PioError, PioLibrary, Result, Target};
use mpi_sim::{Comm, MpiFile};
use pserial::{Bp4, Serializer, SliceSource, VarMeta};
use workloads::BlockDecomp;

const FILE_MAGIC: u32 = 0x4142_5031; // "ABP1"
const HEADER_LEN: u64 = 64;

/// The ADIOS-like library.
#[derive(Debug, Default)]
pub struct AdiosLike;

impl AdiosLike {
    /// Serialize this rank's variables into one staged process group.
    /// Charges the serialize CPU pass and the DRAM staging copy — the exact
    /// cost pMEMCPY's direct-to-PMEM path avoids.
    fn build_process_group(
        comm: &Comm,
        decomp: &BlockDecomp,
        vars: &[String],
        blocks: &[Vec<f64>],
    ) -> Vec<u8> {
        let (off, dims) = decomp.block(comm.rank() as u64);
        let mut staging = Vec::new();
        for (v, name) in vars.iter().enumerate() {
            let meta = VarMeta::block(
                name.clone(),
                pserial::Datatype::F64,
                &decomp.global_dims,
                &off,
                &dims,
            );
            Bp4.write_var(&meta, f64_bytes(&blocks[v]), &mut staging)
                .expect("vec sink cannot fail");
        }
        let machine = comm.machine();
        {
            let _p = machine.phase(comm.clock(), "put", "serialize");
            machine.charge_serialize(comm.clock(), staging.len() as u64, Bp4.cpu_cost_factor());
        }
        {
            let _p = machine.phase(comm.clock(), "put", "stage");
            machine.metric_counter_add("stage.bytes", staging.len() as u64);
            machine.charge_dram_copy(comm.clock(), staging.len() as u64);
        }
        staging
    }
}

impl PioLibrary for AdiosLike {
    fn name(&self) -> &'static str {
        "ADIOS"
    }

    fn write(
        &self,
        comm: &Comm,
        target: &Target,
        decomp: &BlockDecomp,
        vars: &[String],
        blocks: &[Vec<f64>],
    ) -> Result<()> {
        let (fs, path) = target.fs(self.name())?;
        let file = MpiFile::create(comm, fs, path)?;

        // Phase 1: serialize into the DRAM staging buffer (BP "PG buffer").
        let pg = Self::build_process_group(comm, decomp, vars, blocks);

        // Phase 2: coordinate process-group offsets (allgather of sizes —
        // the only communication ADIOS needs).
        let sizes: Vec<u64> = comm
            .allgatherv(&(pg.len() as u64).to_le_bytes())
            .iter()
            .map(|b| u64::from_le_bytes(b[..8].try_into().unwrap()))
            .collect();
        let my_off: u64 = HEADER_LEN + sizes[..comm.rank()].iter().sum::<u64>();

        // Phase 3: persist the staged group with an independent POSIX write.
        file.write_at(my_off, &pg)?;

        // Phase 4: rank 0 writes header + footer index.
        if comm.rank() == 0 {
            let data_end = HEADER_LEN + sizes.iter().sum::<u64>();
            let mut header = vec![0u8; HEADER_LEN as usize];
            header[..4].copy_from_slice(&FILE_MAGIC.to_le_bytes());
            header[4..8].copy_from_slice(&(comm.size() as u32).to_le_bytes());
            header[8..12].copy_from_slice(&(vars.len() as u32).to_le_bytes());
            header[16..24].copy_from_slice(&data_end.to_le_bytes());
            file.write_at(0, &header)?;
            // Footer: per-rank (offset, len) table.
            let mut footer = Vec::with_capacity(16 * sizes.len());
            let mut cur = HEADER_LEN;
            for &s in &sizes {
                footer.extend_from_slice(&cur.to_le_bytes());
                footer.extend_from_slice(&s.to_le_bytes());
                cur += s;
            }
            file.write_at(data_end, &footer)?;
        }
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
        let (fs, path) = target.fs(self.name())?;
        let file = MpiFile::open(comm, fs, path)?;

        // Rank 0 reads header + footer, broadcasts the PG table.
        let table = if comm.rank() == 0 {
            let mut header = vec![0u8; HEADER_LEN as usize];
            file.read_at(0, &mut header)?;
            let magic = u32::from_le_bytes(header[..4].try_into().unwrap());
            if magic != FILE_MAGIC {
                return Err(PioError::Format("not an ADIOS-like BP file".into()));
            }
            let nprocs = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
            if nprocs != comm.size() {
                return Err(PioError::Format(format!(
                    "file written by {nprocs} ranks, read by {}",
                    comm.size()
                )));
            }
            let data_end = u64::from_le_bytes(header[16..24].try_into().unwrap());
            let mut footer = vec![0u8; 16 * nprocs];
            file.read_at(data_end, &mut footer)?;
            Some(footer)
        } else {
            None
        };
        let table = comm.bcast(0, table.as_deref());
        let rank = comm.rank();
        let my_off = u64::from_le_bytes(table[rank * 16..rank * 16 + 8].try_into().unwrap());
        let my_len = u64::from_le_bytes(table[rank * 16 + 8..rank * 16 + 16].try_into().unwrap());

        // POSIX read of the whole PG into DRAM (the copy pMEMCPY avoids)...
        let mut staged = vec![0u8; my_len as usize];
        file.read_at(my_off, &mut staged)?;

        // ...then deserialize out of the staging buffer into user arrays.
        let machine = comm.machine();
        {
            let _p = machine.phase(comm.clock(), "get", "serialize");
            machine.charge_serialize(comm.clock(), staged.len() as u64, Bp4.cpu_cost_factor());
        }
        {
            let _p = machine.phase(comm.clock(), "get", "stage");
            machine.metric_counter_add("stage.bytes", staged.len() as u64);
            machine.charge_dram_copy(comm.clock(), staged.len() as u64);
        }
        let (off, dims) = decomp.block(rank as u64);
        let mut out = vec![Vec::new(); vars.len()];
        let mut src = SliceSource::new(&staged);
        for _ in 0..vars.len() {
            let (hdr, payload) = Bp4.read_var(&mut src)?;
            let v = vars
                .iter()
                .position(|n| *n == hdr.meta.name)
                .ok_or_else(|| PioError::Format(format!("unexpected var {:?}", hdr.meta.name)))?;
            if hdr.meta.offsets != off || hdr.meta.dims != dims {
                return Err(PioError::Format(format!(
                    "block mismatch for {:?} (symmetric read expected)",
                    hdr.meta.name
                )));
            }
            out[v] = bytes_to_f64(&payload);
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
    use simfs::{MountMode, SimFs};
    use std::sync::Arc;

    #[test]
    fn write_then_symmetric_read_round_trips() {
        let dev = PmemDevice::new(Machine::chameleon(), 64 << 20, PersistenceMode::Fast);
        let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
        run_world(Arc::clone(dev.machine()), 6, move |comm| {
            let decomp = BlockDecomp::new(&[24, 24, 24], comm.size() as u64);
            let vars: Vec<String> = ["rho", "u", "E"].iter().map(|s| s.to_string()).collect();
            let blocks: Vec<Vec<f64>> = (0..vars.len())
                .map(|v| workloads::generate_block(&decomp, v, comm.rank() as u64))
                .collect();
            let target = Target::Fs {
                fs: Arc::clone(&fs),
                path: "/adios.bp".into(),
            };
            let lib = AdiosLike;
            lib.write(&comm, &target, &decomp, &vars, &blocks).unwrap();
            comm.barrier();
            let back = lib.read(&comm, &target, &decomp, &vars).unwrap();
            for (v, blk) in back.iter().enumerate() {
                assert_eq!(
                    workloads::verify_block(&decomp, v, comm.rank() as u64, blk),
                    0,
                    "var {v} corrupt"
                );
            }
        });
    }

    #[test]
    fn write_performs_a_dram_staging_pass() {
        let dev = PmemDevice::new(Machine::chameleon(), 32 << 20, PersistenceMode::Fast);
        let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
        let machine = Arc::clone(dev.machine());
        run_world(Arc::clone(&machine), 2, move |comm| {
            let decomp = BlockDecomp::new(&[16, 16, 16], 2);
            let vars = vec!["x".to_string()];
            let blocks = vec![workloads::generate_block(&decomp, 0, comm.rank() as u64)];
            let target = Target::Fs {
                fs: Arc::clone(&fs),
                path: "/a.bp".into(),
            };
            AdiosLike
                .write(&comm, &target, &decomp, &vars, &blocks)
                .unwrap();
        });
        let s = machine.stats.snapshot();
        // Every payload byte staged once in DRAM and written once to PMEM.
        let payload = 16 * 16 * 16 * 8;
        assert!(s.dram_bytes_copied >= payload, "staging copy missing");
        assert!(s.pmem_bytes_written >= payload, "media write missing");
    }

    #[test]
    fn read_rejects_wrong_rank_count() {
        let dev = PmemDevice::new(Machine::chameleon(), 32 << 20, PersistenceMode::Fast);
        let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
        let fs2 = Arc::clone(&fs);
        run_world(Arc::clone(dev.machine()), 2, move |comm| {
            let decomp = BlockDecomp::new(&[8, 8, 8], 2);
            let vars = vec!["x".to_string()];
            let blocks = vec![workloads::generate_block(&decomp, 0, comm.rank() as u64)];
            let target = Target::Fs {
                fs: Arc::clone(&fs2),
                path: "/two.bp".into(),
            };
            AdiosLike
                .write(&comm, &target, &decomp, &vars, &blocks)
                .unwrap();
        });
        run_world(Arc::clone(dev.machine()), 1, move |comm| {
            let decomp = BlockDecomp::new(&[8, 8, 8], 1);
            let vars = vec!["x".to_string()];
            let target = Target::Fs {
                fs: Arc::clone(&fs),
                path: "/two.bp".into(),
            };
            assert!(AdiosLike.read(&comm, &target, &decomp, &vars).is_err());
        });
    }
}
