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
use crate::error::Result;
use pmem_sim::{Clock, SimTime, DRAIN_LANE};
use simfs::SimFs;
use std::sync::Arc;

/// Records are streamed to mass storage in chunks of this size, so the
/// drain's DRAM footprint stays bounded no matter how large a variable is.
pub(crate) const DRAIN_CHUNK: usize = 256 * 1024;

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
}

/// Keys may contain '/'; keep the drain namespace flat and injective: `%`
/// is escaped before `/`, so no two keys drain to one file.
fn sanitize(key: &str) -> String {
    key.replace('%', "%25").replace('/', "%2F")
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
        assert!(bb.exists("/bb/grid#dims"));
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
    fn slash_keys_flatten_reversibly() {
        assert_eq!(sanitize("a/b/c"), "a%2Fb%2Fc");
        let (mut pmem, _comm, bb) = fixture();
        pmem.store_scalar("deep/nested/key", 1u64).unwrap();
        pmem.drain_to_storage(&bb, "/bb").unwrap();
        assert!(bb.exists("/bb/deep%2Fnested%2Fkey"));
        pmem.munmap().unwrap();
    }

    #[test]
    fn keys_that_differ_only_by_an_escape_drain_to_distinct_files() {
        let (mut pmem, _comm, bb) = fixture();
        pmem.store_scalar("a/b", 1u64).unwrap();
        pmem.store_scalar("a%2Fb", 2u64).unwrap();
        let report = pmem.drain_to_storage(&bb, "/bb").unwrap();
        assert_eq!(report.keys, 2);
        assert_eq!(bb.list_dir("/bb").unwrap().len(), 2, "one file a key");
        let clock = Clock::new();
        for (key, file) in [("a/b", "/bb/a%2Fb"), ("a%2Fb", "/bb/a%252Fb")] {
            let mut drained = vec![0u8; bb.file_size(file).unwrap() as usize];
            let fd = bb.open(&clock, file).unwrap();
            bb.read_at(&clock, fd, 0, &mut drained).unwrap();
            bb.close(&clock, fd).unwrap();
            assert_eq!(drained, pmem.raw_record(key).unwrap(), "{key} -> {file}");
        }
        pmem.munmap().unwrap();
    }
}
