//! Shared machinery for the contiguous-layout libraries (NetCDF-4, pNetCDF).
//!
//! Both store every variable as a single *globally linearized* array (§2.1:
//! *"pNetCDF and NetCDF store data contiguously, which requires data to be
//! shuffled during both reads and writes"*). Each rank's 3-D block occupies
//! thousands of scattered runs of that linearization, so every write/read is
//! a collective two-phase operation: pack the runs, shuffle them to the
//! aggregator owning each file domain, and issue large contiguous accesses.

use crate::pio::{f64_bytes, Result};
use mpi_sim::{Comm, MpiFile, ReadSegment, Subarray, WriteSegment};
use workloads::BlockDecomp;

/// One variable's placement in the contiguous file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarPlacement {
    pub name: String,
    pub data_offset: u64,
}

/// Collectively write this rank's block of variable `v` at `data_offset`.
pub fn write_var_contiguous(
    comm: &Comm,
    file: &MpiFile,
    decomp: &BlockDecomp,
    data_offset: u64,
    block: &[f64],
) -> Result<()> {
    let (off, dims) = decomp.block(comm.rank() as u64);
    let sub = Subarray::new(&decomp.global_dims, &dims, &off);
    let bytes = f64_bytes(block);
    // Packing the scattered runs into send segments is a full pass over the
    // block in DRAM — the start of the rearrangement pMEMCPY never does.
    {
        let machine = comm.machine();
        let _p = machine.phase(comm.clock(), "put", "rearrange");
        machine.metric_counter_add("rearrange.bytes", bytes.len() as u64);
        machine.charge_dram_copy(comm.clock(), bytes.len() as u64);
    }
    let segments: Vec<WriteSegment> = sub
        .runs()
        .into_iter()
        .map(|run| WriteSegment {
            offset: data_offset + run.global_offset * 8,
            data: bytes
                [(run.local_offset * 8) as usize..((run.local_offset + run.len) * 8) as usize]
                .to_vec(),
        })
        .collect();
    file.write_at_all(&segments)?;
    Ok(())
}

/// Collectively read this rank's block of variable `v` from `data_offset`.
pub fn read_var_contiguous(
    comm: &Comm,
    file: &MpiFile,
    decomp: &BlockDecomp,
    data_offset: u64,
) -> Result<Vec<f64>> {
    let (off, dims) = decomp.block(comm.rank() as u64);
    let sub = Subarray::new(&decomp.global_dims, &dims, &off);
    let runs = sub.runs();
    let requests: Vec<ReadSegment> = runs
        .iter()
        .map(|run| ReadSegment {
            offset: data_offset + run.global_offset * 8,
            len: run.len * 8,
        })
        .collect();
    let pieces = file.read_at_all(&requests)?;
    // Reassembling the runs into the dense local block is a full DRAM pass.
    let elems: u64 = dims.iter().product();
    let mut block = vec![0f64; elems as usize];
    let out = workloads::as_bytes_mut(&mut block);
    for (run, piece) in runs.iter().zip(&pieces) {
        let dst = (run.local_offset * 8) as usize;
        out[dst..dst + piece.len()].copy_from_slice(piece);
    }
    {
        let machine = comm.machine();
        let _p = machine.phase(comm.clock(), "get", "rearrange");
        machine.metric_counter_add("rearrange.bytes", elems * 8);
        machine.charge_dram_copy(comm.clock(), elems * 8);
    }
    Ok(block)
}

/// Collectively pre-fill a variable's global extent with the fill value
/// (classic NetCDF behaviour without `NC_NOFILL` — the overhead the paper
/// explicitly disables; kept for the ablation bench).
pub fn fill_var(
    comm: &Comm,
    file: &MpiFile,
    decomp: &BlockDecomp,
    data_offset: u64,
    fill: f64,
) -> Result<()> {
    // Each rank fills an equal contiguous slice of the linearized array.
    let total: u64 = decomp.global_dims.iter().product::<u64>() * 8;
    let p = comm.size() as u64;
    let share = total.div_ceil(p);
    let start = share * comm.rank() as u64;
    let end = (start + share).min(total);
    if start < end {
        let n = ((end - start) / 8) as usize;
        let buf: Vec<f64> = vec![fill; n];
        file.write_at(data_offset + start, f64_bytes(&buf))?;
    }
    comm.barrier();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::run_world;
    use pmem_sim::{Machine, PersistenceMode, PmemDevice};
    use simfs::{MountMode, SimFs};
    use std::sync::Arc;

    #[test]
    fn contiguous_write_read_round_trips() {
        let dev = PmemDevice::new(Machine::chameleon(), 64 << 20, PersistenceMode::Fast);
        let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
        run_world(Arc::clone(dev.machine()), 4, move |comm| {
            let decomp = BlockDecomp::new(&[12, 10, 8], comm.size() as u64);
            let block = workloads::generate_block(&decomp, 0, comm.rank() as u64);
            let file = MpiFile::create(&comm, &fs, "/contig.bin").unwrap();
            write_var_contiguous(&comm, &file, &decomp, 4096, &block).unwrap();
            let back = read_var_contiguous(&comm, &file, &decomp, 4096).unwrap();
            file.close().unwrap();
            assert_eq!(
                workloads::verify_block(&decomp, 0, comm.rank() as u64, &back),
                0
            );
        });
    }

    #[test]
    fn global_linearization_is_row_major() {
        // With one rank the file must contain the array in row-major order.
        let dev = PmemDevice::new(Machine::chameleon(), 16 << 20, PersistenceMode::Fast);
        let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
        run_world(Arc::clone(dev.machine()), 1, move |comm| {
            let decomp = BlockDecomp::new(&[2, 3, 4], 1);
            let block = workloads::generate_block(&decomp, 0, 0);
            let file = MpiFile::create(&comm, &fs, "/rm.bin").unwrap();
            write_var_contiguous(&comm, &file, &decomp, 0, &block).unwrap();
            let mut raw = vec![0u8; 2 * 3 * 4 * 8];
            file.read_at(0, &mut raw).unwrap();
            file.close().unwrap();
            let vals = crate::pio::bytes_to_f64(&raw);
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(*v, workloads::element_value(0, i as u64));
            }
        });
    }

    #[test]
    fn fill_writes_the_whole_extent() {
        let dev = PmemDevice::new(Machine::chameleon(), 16 << 20, PersistenceMode::Fast);
        let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
        run_world(Arc::clone(dev.machine()), 3, move |comm| {
            let decomp = BlockDecomp::new(&[6, 6, 6], comm.size() as u64);
            let file = MpiFile::create(&comm, &fs, "/fill.bin").unwrap();
            fill_var(&comm, &file, &decomp, 0, -1.0).unwrap();
            if comm.rank() == 0 {
                let mut raw = vec![0u8; 6 * 6 * 6 * 8];
                file.read_at(0, &mut raw).unwrap();
                assert!(crate::pio::bytes_to_f64(&raw).iter().all(|&v| v == -1.0));
            }
            file.close().unwrap();
        });
    }

    #[test]
    fn shuffle_moves_bytes_through_the_fabric() {
        let dev = PmemDevice::new(Machine::chameleon(), 64 << 20, PersistenceMode::Fast);
        let fs = SimFs::mount_all(Arc::clone(&dev), MountMode::Dax);
        let machine = Arc::clone(dev.machine());
        run_world(Arc::clone(&machine), 4, move |comm| {
            let decomp = BlockDecomp::new(&[16, 16, 16], comm.size() as u64);
            let block = workloads::generate_block(&decomp, 0, comm.rank() as u64);
            let file = MpiFile::create(&comm, &fs, "/shuf.bin").unwrap();
            write_var_contiguous(&comm, &file, &decomp, 0, &block).unwrap();
            file.close().unwrap();
        });
        let s = machine.stats.snapshot();
        let payload = 16u64 * 16 * 16 * 8;
        // A 2x2x1-ish grid scatters most runs onto foreign aggregators.
        assert!(
            s.net_bytes > payload / 4,
            "rearrangement traffic missing: {} of {payload}",
            s.net_bytes
        );
        assert!(s.dram_bytes_copied >= payload, "pack pass missing");
    }
}
