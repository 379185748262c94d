//! pMEMCPY behind the common [`PioLibrary`] interface, so the figures
//! harness can iterate over all five configurations uniformly. PMCPY-A is
//! MAP_SYNC-off, PMCPY-B is MAP_SYNC-on — the two curves in Figures 6–7.

use crate::pio::{PioError, PioLibrary, Result, Target};
use mpi_sim::Comm;
use pmemcpy::{MmapTarget, Options, Pmem};
use workloads::BlockDecomp;

/// pMEMCPY under the harness interface.
#[derive(Debug, Clone)]
pub struct PmemcpyLib {
    pub options: Options,
    pub label: &'static str,
    /// Ask the harness for a filesystem target, which mounts the
    /// hierarchical layout; off means devdax and the hashtable layout.
    on_fs: bool,
}

impl PmemcpyLib {
    /// PMCPY-A: MAP_SYNC disabled (the paper's fast configuration).
    pub fn variant_a() -> Self {
        Self::custom("PMCPY-A", Options::pmcpy_a())
    }

    /// PMCPY-B: MAP_SYNC enabled.
    pub fn variant_b() -> Self {
        Self::custom("PMCPY-B", Options::pmcpy_b())
    }

    /// Custom options under a custom label (ablation benches).
    pub fn custom(label: &'static str, options: Options) -> Self {
        PmemcpyLib {
            options,
            label,
            on_fs: false,
        }
    }

    /// The same configuration on §3's hierarchical layout: the harness
    /// hands it a DAX-filesystem directory instead of a devdax namespace.
    pub fn on_fs(self) -> Self {
        PmemcpyLib {
            on_fs: true,
            ..self
        }
    }

    fn map(&self, comm: &Comm, target: &Target) -> Result<Pmem> {
        let mut pmem = Pmem::with_options(self.options.clone());
        match target {
            Target::DevDax(device) => pmem
                .mmap(MmapTarget::DevDax(device), comm)
                .map_err(|e| PioError::Pmemcpy(e.to_string()))?,
            Target::Fs { fs, path } => pmem
                .mmap(MmapTarget::Fs { fs, dir: path }, comm)
                .map_err(|e| PioError::Pmemcpy(e.to_string()))?,
        }
        Ok(pmem)
    }
}

impl PioLibrary for PmemcpyLib {
    fn name(&self) -> &'static str {
        self.label
    }

    fn needs_devdax(&self) -> bool {
        !self.on_fs
    }

    fn write(
        &self,
        comm: &Comm,
        target: &Target,
        decomp: &BlockDecomp,
        vars: &[String],
        blocks: &[Vec<f64>],
    ) -> Result<()> {
        let mut pmem = self.map(comm, target)?;
        let (off, dims) = decomp.block(comm.rank() as u64);
        if comm.rank() == 0 {
            // One group commit for all the dims records.
            let mut batch = pmem.batch();
            for name in vars {
                batch
                    .alloc::<f64>(name, &decomp.global_dims)
                    .map_err(|e| PioError::Pmemcpy(e.to_string()))?;
            }
            batch
                .commit()
                .map_err(|e| PioError::Pmemcpy(e.to_string()))?;
        }
        comm.barrier();
        // Group-commit the rank's whole output step: one pool transaction
        // and one allocator pass for all variables.
        let mut batch = pmem.batch();
        for (v, name) in vars.iter().enumerate() {
            batch
                .store_block(name, &blocks[v], &off, &dims)
                .map_err(|e| PioError::Pmemcpy(e.to_string()))?;
        }
        batch
            .commit()
            .map_err(|e| PioError::Pmemcpy(e.to_string()))?;
        comm.barrier();
        pmem.munmap()
            .map_err(|e| PioError::Pmemcpy(e.to_string()))?;
        Ok(())
    }

    fn read(
        &self,
        comm: &Comm,
        target: &Target,
        decomp: &BlockDecomp,
        vars: &[String],
    ) -> Result<Vec<Vec<f64>>> {
        let mut pmem = self.map(comm, target)?;
        let (off, dims) = decomp.block(comm.rank() as u64);
        let elems: u64 = dims.iter().product();
        let mut out: Vec<Vec<f64>> = (0..vars.len())
            .map(|_| vec![0f64; elems as usize])
            .collect();
        // Group the rank's whole restart step: one grouped metadata lookup
        // for all variables, payloads streamed straight into the output
        // blocks.
        let mut batch = pmem.read_batch();
        for (name, block) in vars.iter().zip(out.iter_mut()) {
            batch
                .load_block_into(name, block, &off, &dims)
                .map_err(|e| PioError::Pmemcpy(e.to_string()))?;
        }
        batch
            .commit()
            .map_err(|e| PioError::Pmemcpy(e.to_string()))?;
        comm.barrier();
        pmem.munmap()
            .map_err(|e| PioError::Pmemcpy(e.to_string()))?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::run_world;
    use pmem_sim::{Machine, PersistenceMode, PmemDevice};
    use std::sync::Arc;

    #[test]
    fn adapter_round_trips_on_devdax() {
        for lib in [PmemcpyLib::variant_a(), PmemcpyLib::variant_b()] {
            let dev = PmemDevice::new(Machine::chameleon(), 128 << 20, PersistenceMode::Fast);
            let dev2 = Arc::clone(&dev);
            run_world(Arc::clone(dev.machine()), 4, move |comm| {
                let decomp = BlockDecomp::new(&[12, 12, 12], comm.size() as u64);
                let vars: Vec<String> = ["m", "n"].iter().map(|s| s.to_string()).collect();
                let blocks: Vec<Vec<f64>> = (0..vars.len())
                    .map(|v| workloads::generate_block(&decomp, v, comm.rank() as u64))
                    .collect();
                let target = Target::DevDax(Arc::clone(&dev2));
                lib.write(&comm, &target, &decomp, &vars, &blocks).unwrap();
                comm.barrier();
                let back = lib.read(&comm, &target, &decomp, &vars).unwrap();
                for (v, blk) in back.iter().enumerate() {
                    assert_eq!(
                        workloads::verify_block(&decomp, v, comm.rank() as u64, blk),
                        0
                    );
                }
            });
        }
    }
}
