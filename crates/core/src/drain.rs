//! Burst-buffer drain (§3): *"After serialization, a burst buffer, such as
//! DataWarp, will then be triggered to asynchronously flush the buffered
//! data to mass storage. The data will be stored in the same format as it
//! was produced."*
//!
//! The drain runs on its **own clock**, so the application's measured window
//! (mmap→munmap) is unaffected — the flush is asynchronous in virtual time
//! exactly as the paper's burst buffer is in wall-clock time. Each record is
//! read from PMEM at media rates and pushed over the machine's storage tier
//! (the `storage` fluid resource, the DataWarp-like interconnect); the bytes
//! land verbatim in the target filesystem, one file per key, preserving the
//! serialized format.

use crate::api::Pmem;
use crate::error::{PmemCpyError, Result};
use pmem_sim::{Clock, SimTime, DRAIN_LANE};
use simfs::SimFs;
use std::sync::Arc;

/// Records are streamed to mass storage in chunks of this size, so the
/// drain's DRAM footprint stays bounded no matter how large a variable is.
pub const DRAIN_CHUNK: usize = 256 * 1024;

/// Outcome of a drain pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Keys flushed.
    pub keys: usize,
    /// Bytes pushed to the mass-storage tier.
    pub bytes: u64,
    /// Virtual time the asynchronous drain took (its own clock).
    pub drain_time: SimTime,
}

impl Pmem {
    /// Flush every stored record to mass storage under `dir` of `target`
    /// (one file per key, format-preserving). Runs asynchronously in
    /// virtual time: the handle's own clock does not advance.
    pub fn drain_to_storage(&self, target: &Arc<SimFs>, dir: &str) -> Result<DrainReport> {
        let (layout, machine) = self.layout_and_machine()?;
        // The drain's activity traces on its own reserved lane.
        let drain_clock = Clock::with_lane(DRAIN_LANE);
        let mut span = machine.span(&drain_clock, "drain", "drain");
        target.mkdir_p(&drain_clock, dir)?;
        let mut keys = 0usize;
        let mut bytes = 0u64;
        for key in layout.keys(&drain_clock) {
            let mut key_span = machine.span(&drain_clock, "drain", "drain.key");
            // Stream the record out in bounded chunks — no whole-record DRAM
            // staging; each chunk is pushed over the burst-buffer
            // interconnect and landed before the next is read.
            let path = format!("{dir}/{}", sanitize(&key));
            let fd = target.create(&drain_clock, &path)?;
            let mut off = 0u64;
            let record_len = layout.stream_raw(&drain_clock, &key, DRAIN_CHUNK, &mut |chunk| {
                machine.charge_storage_write(&drain_clock, chunk.len() as u64);
                target.write_at_untimed(&drain_clock, fd, off, chunk)?;
                off += chunk.len() as u64;
                Ok(())
            })?;
            target.fsync(&drain_clock, fd)?;
            target.close(&drain_clock, fd)?;
            keys += 1;
            bytes += record_len;
            key_span.set_arg("bytes", record_len);
        }
        span.set_arg("bytes", bytes);
        Ok(DrainReport {
            keys,
            bytes,
            drain_time: drain_clock.now(),
        })
    }

    /// Restore one drained record back into PMEM under the same key
    /// (the recovery direction of the hierarchy in Fig. 1). The record is
    /// read from mass storage, decoded, and re-stored through the normal
    /// zero-staging path.
    pub fn restore_from_storage(&self, target: &Arc<SimFs>, dir: &str, key: &str) -> Result<()> {
        let (layout, machine) = self.layout_and_machine()?;
        let clock = self.clock()?;
        let _span = machine.span(clock, "drain", "restore");
        let path = format!("{dir}/{}", sanitize(key));
        if !target.exists(&path) {
            return Err(PmemCpyError::NotFound(key.to_string()));
        }
        let len = target.file_size(&path)? as usize;
        let fd = target.open(clock, &path)?;
        let mut record = vec![0u8; len];
        target.read_at(clock, fd, 0, &mut record)?;
        target.close(clock, fd)?;
        machine.charge_storage_write(clock, 0); // metadata touch; read side is the fs charge
                                                // Decode with the configured serializer and re-store.
        let serializer = self.options().resolve_serializer()?;
        let mut src = pserial::SliceSource::new(&record);
        let (hdr, payload) = serializer.read_var(&mut src)?;
        let mut meta = hdr.meta;
        if meta.name.is_empty() {
            meta.name = key.to_string(); // raw format erases names
        }
        layout.store(clock, key, &meta, &payload)
    }
}

/// Keys may contain '/'; keep the drain namespace flat and reversible.
fn sanitize(key: &str) -> String {
    key.replace('/', "%2F")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::MmapTarget;
    use mpi_sim::{Comm, World};
    use pmem_sim::{Machine, PersistenceMode, PmemDevice};
    use simfs::MountMode;

    fn fixture() -> (Pmem, Comm, Arc<SimFs>) {
        let machine = Machine::chameleon();
        let dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
        let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
        // Mass-storage tier: a page-cached filesystem on its own device.
        let bb_dev = PmemDevice::new(Arc::clone(&machine), 32 << 20, PersistenceMode::Fast);
        let bb = SimFs::mount_all(bb_dev, MountMode::PageCache);
        (pmem, comm, bb)
    }

    #[test]
    fn drain_copies_every_record_format_preserving() {
        let (mut pmem, _comm, bb) = fixture();
        pmem.store_slice("u", &vec![1.5f64; 500]).unwrap();
        pmem.store_scalar("step", 7u64).unwrap();
        pmem.alloc::<f64>("grid", &[64, 64]).unwrap();

        let report = pmem.drain_to_storage(&bb, "/bb").unwrap();
        assert_eq!(report.keys, 3); // u, step, grid#dims
        assert!(report.bytes > 4000);
        assert!(report.drain_time > SimTime::ZERO);
        assert!(bb.exists("/bb/u"));
        assert!(bb.exists("/bb/step"));
        assert!(bb.exists("/bb/grid%23dims") || bb.exists("/bb/grid#dims"));
        pmem.munmap().unwrap();
    }

    #[test]
    fn drain_does_not_advance_the_application_clock() {
        let (mut pmem, _comm, bb) = fixture();
        pmem.store_slice("data", &vec![2.0f64; 10_000]).unwrap();
        let before = pmem.now();
        pmem.drain_to_storage(&bb, "/bb").unwrap();
        assert_eq!(pmem.now(), before, "drain must be asynchronous");
        pmem.munmap().unwrap();
    }

    #[test]
    fn restore_round_trips_through_mass_storage() {
        let (mut pmem, _comm, bb) = fixture();
        let data: Vec<f64> = (0..1000).map(|i| i as f64 * 0.25).collect();
        pmem.store_slice("field", &data).unwrap();
        pmem.drain_to_storage(&bb, "/bb").unwrap();

        // Lose the PMEM copy, restore from the drained record.
        pmem.remove("field").unwrap();
        assert!(!pmem.exists("field"));
        pmem.restore_from_storage(&bb, "/bb", "field").unwrap();
        assert_eq!(pmem.load_slice::<f64>("field").unwrap(), data);
        pmem.munmap().unwrap();
    }

    #[test]
    fn drain_charges_the_storage_tier() {
        let (mut pmem, comm, bb) = fixture();
        pmem.store_slice("x", &vec![3.0f64; 4096]).unwrap();
        let before = comm.machine().stats.snapshot().storage_bytes_written;
        pmem.drain_to_storage(&bb, "/bb").unwrap();
        let after = comm.machine().stats.snapshot().storage_bytes_written;
        assert!(after > before + 30_000, "storage traffic missing: {after}");
        pmem.munmap().unwrap();
    }

    #[test]
    fn restore_missing_key_errors() {
        let (mut pmem, _comm, bb) = fixture();
        bb.mkdir_p(&Clock::new(), "/bb").unwrap();
        assert!(matches!(
            pmem.restore_from_storage(&bb, "/bb", "nope"),
            Err(PmemCpyError::NotFound(_))
        ));
        pmem.munmap().unwrap();
    }

    #[test]
    fn slash_keys_flatten_reversibly() {
        assert_eq!(sanitize("a/b/c"), "a%2Fb%2Fc");
        let (mut pmem, _comm, bb) = fixture();
        pmem.store_scalar("deep/nested/key", 1u64).unwrap();
        pmem.drain_to_storage(&bb, "/bb").unwrap();
        assert!(bb.exists("/bb/deep%2Fnested%2Fkey"));
        pmem.remove("deep/nested/key").unwrap();
        pmem.restore_from_storage(&bb, "/bb", "deep/nested/key")
            .unwrap();
        assert_eq!(pmem.load_scalar::<u64>("deep/nested/key").unwrap(), 1);
        pmem.munmap().unwrap();
    }
}
