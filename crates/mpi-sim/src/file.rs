//! MPI-IO over the simulated filesystem, including two-phase collective I/O.
//!
//! Independent I/O (`write_at`/`read_at`) goes straight to the POSIX layer.
//! Collective I/O (`write_at_all`/`read_at_all`) implements the classic
//! ROMIO *two-phase* optimization: the byte range touched by the collective
//! is divided into equal *file domains*, one per aggregator rank; data is
//! shuffled to/from the owning aggregators (real messages through the
//! simulated fabric), and each aggregator performs large contiguous accesses
//! on its domain. This is the data-rearrangement phase whose cost the paper
//! blames for HDF5/NetCDF/pNetCDF's PMEM performance (§2.1, §4.1).

use crate::comm::Comm;
use pmem_sim::SimTime;
use simfs::{Result, SimFs};
use std::sync::Arc;

/// A parallel file handle (every rank holds one).
#[derive(Debug)]
pub struct MpiFile {
    fs: Arc<SimFs>,
    comm: Comm,
    fd: u64,
    path: String,
}

/// One rank's segment of a collective operation.
#[derive(Debug, Clone)]
pub struct WriteSegment {
    pub offset: u64,
    pub data: Vec<u8>,
}

/// One rank's read request in a collective read.
#[derive(Debug, Clone, Copy)]
pub struct ReadSegment {
    pub offset: u64,
    pub len: u64,
}

impl MpiFile {
    /// Collectively create (rank 0) and open (everyone) `path`.
    pub fn create(comm: &Comm, fs: &Arc<SimFs>, path: &str) -> Result<MpiFile> {
        let fd = if comm.rank() == 0 {
            let fd = fs.create(comm.clock(), path)?;
            comm.barrier();
            fd
        } else {
            comm.barrier();
            fs.open(comm.clock(), path)?
        };
        Ok(MpiFile {
            fs: Arc::clone(fs),
            comm: comm.clone(),
            fd,
            path: path.to_string(),
        })
    }

    /// Collectively open an existing file.
    pub fn open(comm: &Comm, fs: &Arc<SimFs>, path: &str) -> Result<MpiFile> {
        comm.barrier();
        let fd = fs.open(comm.clock(), path)?;
        Ok(MpiFile {
            fs: Arc::clone(fs),
            comm: comm.clone(),
            fd,
            path: path.to_string(),
        })
    }

    pub fn path(&self) -> &str {
        &self.path
    }

    /// Independent write (MPI_File_write_at).
    pub fn write_at(&self, offset: u64, data: &[u8]) -> Result<()> {
        self.fs.write_at(self.comm.clock(), self.fd, offset, data)
    }

    /// Independent read (MPI_File_read_at).
    pub fn read_at(&self, offset: u64, dst: &mut [u8]) -> Result<usize> {
        self.fs.read_at(self.comm.clock(), self.fd, offset, dst)
    }

    /// Two-phase collective write. Every rank must call with its (possibly
    /// empty) segment list.
    pub fn write_at_all(&self, segments: &[WriteSegment]) -> Result<()> {
        let p = self.comm.size();
        if p == 1 {
            for s in segments {
                self.write_at(s.offset, &s.data)?;
            }
            return Ok(());
        }
        let (lo, hi) =
            self.collective_extent(segments.iter().map(|s| (s.offset, s.data.len() as u64)));
        if hi == lo {
            return Ok(());
        }
        let domain = (hi - lo).div_ceil(p as u64);

        // Phase 1: shuffle each segment to the aggregator(s) owning it.
        let mut sends: Vec<Vec<u8>> = vec![Vec::new(); p];
        for s in segments {
            for (aggr, off, chunk) in split_by_domain(lo, domain, s.offset, &s.data) {
                let buf = &mut sends[aggr];
                buf.extend_from_slice(&off.to_le_bytes());
                buf.extend_from_slice(&(chunk.len() as u64).to_le_bytes());
                buf.extend_from_slice(chunk);
            }
        }
        let received = self.comm.alltoallv(&sends);

        // Phase 2: assemble this rank's domain and write coalesced runs.
        let mut pieces: Vec<(u64, Vec<u8>)> = vec![];
        for buf in received {
            let mut pos = 0;
            while pos < buf.len() {
                let off = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
                let len = u64::from_le_bytes(buf[pos + 8..pos + 16].try_into().unwrap()) as usize;
                pos += 16;
                pieces.push((off, buf[pos..pos + len].to_vec()));
                pos += len;
            }
        }
        pieces.sort_by_key(|(off, _)| *off);
        // Assembling into the aggregator's staging buffer is a DRAM copy —
        // the two-phase data rearrangement pMEMCPY's direct path never does.
        let staged: u64 = pieces.iter().map(|(_, d)| d.len() as u64).sum();
        if staged > 0 {
            let machine = self.comm.machine();
            let _p = machine.phase(self.comm.clock(), "mpi", "rearrange");
            machine.metric_counter_add("rearrange.bytes", staged);
            machine.charge_dram_copy(self.comm.clock(), staged);
        }
        for (off, data) in coalesce(pieces) {
            self.write_at(off, &data)?;
        }
        self.comm.barrier();
        Ok(())
    }

    /// Two-phase collective read: returns one buffer per requested segment.
    pub fn read_at_all(&self, requests: &[ReadSegment]) -> Result<Vec<Vec<u8>>> {
        let p = self.comm.size();
        if p == 1 {
            let mut out = vec![];
            for r in requests {
                let mut buf = vec![0u8; r.len as usize];
                self.read_at(r.offset, &mut buf)?;
                out.push(buf);
            }
            return Ok(out);
        }
        let (lo, hi) = self.collective_extent(requests.iter().map(|r| (r.offset, r.len)));
        let mut results: Vec<Vec<u8>> =
            requests.iter().map(|r| vec![0u8; r.len as usize]).collect();
        if hi == lo {
            self.comm.barrier();
            return Ok(results);
        }
        let domain = (hi - lo).div_ceil(p as u64);

        // Phase 1: tell each aggregator which ranges we need from its domain.
        let mut asks: Vec<Vec<u8>> = vec![Vec::new(); p];
        for (ri, r) in requests.iter().enumerate() {
            let dummy = vec![0u8; r.len as usize];
            for (aggr, off, chunk) in split_by_domain(lo, domain, r.offset, &dummy) {
                let buf = &mut asks[aggr];
                buf.extend_from_slice(&(ri as u64).to_le_bytes());
                buf.extend_from_slice(&off.to_le_bytes());
                buf.extend_from_slice(&(chunk.len() as u64).to_le_bytes());
            }
        }
        let incoming = self.comm.alltoallv(&asks);

        // Phase 2: ROMIO-style — the aggregator reads its *whole file
        // domain* with one large access and serves every ask from memory.
        let my_domain_start = lo + self.comm.rank() as u64 * domain;
        let my_domain_end = (my_domain_start + domain).min(hi);
        let ask_count: usize = incoming.iter().map(|buf| buf.len() / 24).sum();
        let staged = if ask_count > 0 && my_domain_end > my_domain_start {
            let mut buf = vec![0u8; (my_domain_end - my_domain_start) as usize];
            // Short reads past EOF leave zeros; asks only target written data.
            let _ = self.read_at(my_domain_start, &mut buf)?;
            buf
        } else {
            Vec::new()
        };
        let mut answers: Vec<Vec<u8>> = vec![Vec::new(); p];
        for (src, buf) in incoming.iter().enumerate() {
            let mut pos = 0;
            while pos < buf.len() {
                let ri = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap());
                let off = u64::from_le_bytes(buf[pos + 8..pos + 16].try_into().unwrap());
                let len = u64::from_le_bytes(buf[pos + 16..pos + 24].try_into().unwrap());
                pos += 24;
                let s = (off - my_domain_start) as usize;
                let ans = &mut answers[src];
                ans.extend_from_slice(&ri.to_le_bytes());
                ans.extend_from_slice(&off.to_le_bytes());
                ans.extend_from_slice(&len.to_le_bytes());
                ans.extend_from_slice(&staged[s..s + len as usize]);
            }
        }
        let replies = self.comm.alltoallv(&answers);

        // Phase 3: place replies into the request buffers.
        for buf in replies {
            let mut pos = 0;
            while pos < buf.len() {
                let ri = u64::from_le_bytes(buf[pos..pos + 8].try_into().unwrap()) as usize;
                let off = u64::from_le_bytes(buf[pos + 8..pos + 16].try_into().unwrap());
                let len = u64::from_le_bytes(buf[pos + 16..pos + 24].try_into().unwrap()) as usize;
                pos += 24;
                let r = &requests[ri];
                let start = (off - r.offset) as usize;
                results[ri][start..start + len].copy_from_slice(&buf[pos..pos + len]);
                pos += len;
            }
        }
        let placed: u64 = requests.iter().map(|r| r.len).sum();
        if placed > 0 {
            let machine = self.comm.machine();
            let _p = machine.phase(self.comm.clock(), "mpi", "rearrange");
            machine.metric_counter_add("rearrange.bytes", placed);
            machine.charge_dram_copy(self.comm.clock(), placed);
        }
        self.comm.barrier();
        Ok(results)
    }

    /// Collective metadata sync.
    pub fn sync_all(&self) -> Result<()> {
        self.fs.fsync(self.comm.clock(), self.fd)?;
        self.comm.barrier();
        Ok(())
    }

    /// Collective close.
    pub fn close(self) -> Result<SimTime> {
        self.fs.close(self.comm.clock(), self.fd)?;
        self.comm.barrier();
        Ok(self.comm.now())
    }

    /// Global [min_offset, max_end) of a collective op across all ranks.
    fn collective_extent(&self, segs: impl Iterator<Item = (u64, u64)>) -> (u64, u64) {
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for (off, len) in segs {
            lo = lo.min(off);
            hi = hi.max(off + len);
        }
        use crate::comm::ReduceOp;
        let glo = self.comm.allreduce_u64(lo, ReduceOp::Min);
        let ghi = self.comm.allreduce_u64(hi, ReduceOp::Max);
        if ghi <= glo {
            (0, 0)
        } else {
            (glo, ghi)
        }
    }
}

/// Split `[offset, offset+data.len)` by aggregator file domains of width
/// `domain` starting at `lo`; yields (aggregator, file offset, chunk).
fn split_by_domain(lo: u64, domain: u64, offset: u64, data: &[u8]) -> Vec<(usize, u64, &[u8])> {
    let mut out = vec![];
    let mut pos = 0u64;
    let len = data.len() as u64;
    while pos < len {
        let abs = offset + pos;
        let aggr = ((abs - lo) / domain) as usize;
        let domain_end = lo + (aggr as u64 + 1) * domain;
        let take = (domain_end - abs).min(len - pos);
        out.push((aggr, abs, &data[pos as usize..(pos + take) as usize]));
        pos += take;
    }
    out
}

/// Merge adjacent (offset, data) pieces into maximal contiguous writes.
fn coalesce(pieces: Vec<(u64, Vec<u8>)>) -> Vec<(u64, Vec<u8>)> {
    let mut out: Vec<(u64, Vec<u8>)> = vec![];
    for (off, data) in pieces {
        match out.last_mut() {
            Some((last_off, last_data)) if *last_off + last_data.len() as u64 == off => {
                last_data.extend_from_slice(&data);
            }
            _ => out.push((off, data)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_world;
    use pmem_sim::{Machine, PersistenceMode, PmemDevice};
    use simfs::MountMode;

    fn fs_fixture(mb: usize) -> Arc<SimFs> {
        let dev = PmemDevice::new(Machine::chameleon(), mb << 20, PersistenceMode::Fast);
        SimFs::mount_all(dev, MountMode::Dax)
    }

    #[test]
    fn independent_write_then_read() {
        let fs = fs_fixture(4);
        let fs2 = Arc::clone(&fs);
        run_world(Arc::clone(fs.device().machine()), 4, move |comm| {
            let f = MpiFile::create(&comm, &fs2, "/shared.bin").unwrap();
            let off = comm.rank() as u64 * 100;
            f.write_at(off, &[comm.rank() as u8 + 1; 100]).unwrap();
            comm.barrier();
            let mut buf = [0u8; 100];
            // Read a neighbour's segment.
            let peer = (comm.rank() + 1) % comm.size();
            f.read_at(peer as u64 * 100, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == peer as u8 + 1));
            f.close().unwrap();
        });
    }

    #[test]
    fn collective_write_produces_correct_file() {
        for p in [2, 3, 4, 6] {
            let fs = fs_fixture(8);
            let fs2 = Arc::clone(&fs);
            run_world(Arc::clone(fs.device().machine()), p, move |comm| {
                let f = MpiFile::create(&comm, &fs2, "/coll.bin").unwrap();
                // Interleaved strided segments: rank r owns every p-th block.
                let segs: Vec<WriteSegment> = (0..4)
                    .map(|i| WriteSegment {
                        offset: ((i * comm.size() + comm.rank()) * 64) as u64,
                        data: vec![comm.rank() as u8 + 1; 64],
                    })
                    .collect();
                f.write_at_all(&segs).unwrap();
                // Verify the whole file from rank 0.
                if comm.rank() == 0 {
                    let total = 4 * comm.size() * 64;
                    let mut buf = vec![0u8; total];
                    f.read_at(0, &mut buf).unwrap();
                    for (i, chunk) in buf.chunks(64).enumerate() {
                        let owner = (i % comm.size()) as u8 + 1;
                        assert!(chunk.iter().all(|&b| b == owner), "block {i} corrupt");
                    }
                }
                f.close().unwrap();
            });
        }
    }

    #[test]
    fn collective_read_returns_each_request() {
        let fs = fs_fixture(8);
        let fs2 = Arc::clone(&fs);
        run_world(Arc::clone(fs.device().machine()), 4, move |comm| {
            let f = MpiFile::create(&comm, &fs2, "/cr.bin").unwrap();
            if comm.rank() == 0 {
                let data: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
                f.write_at(0, &data).unwrap();
            }
            comm.barrier();
            let reqs = [
                ReadSegment {
                    offset: comm.rank() as u64 * 512,
                    len: 256,
                },
                ReadSegment {
                    offset: 2048 + comm.rank() as u64 * 128,
                    len: 128,
                },
            ];
            let bufs = f.read_at_all(&reqs).unwrap();
            for (r, buf) in reqs.iter().zip(&bufs) {
                for (k, &b) in buf.iter().enumerate() {
                    assert_eq!(b, ((r.offset as usize + k) % 251) as u8);
                }
            }
            f.close().unwrap();
        });
    }

    #[test]
    fn collective_write_moves_data_through_the_fabric() {
        let fs = fs_fixture(8);
        let fs2 = Arc::clone(&fs);
        let machine = Arc::clone(fs.device().machine());
        run_world(Arc::clone(&machine), 4, move |comm| {
            let f = MpiFile::create(&comm, &fs2, "/net.bin").unwrap();
            // Interleaved stride pattern: rank r owns every p-th 256-byte
            // block, so almost every block lands on a different aggregator's
            // file domain and must be shuffled.
            let segs: Vec<WriteSegment> = (0..4u64)
                .map(|i| WriteSegment {
                    offset: (i * comm.size() as u64 + comm.rank() as u64) * 256,
                    data: vec![1u8; 256],
                })
                .collect();
            f.write_at_all(&segs).unwrap();
            f.close().unwrap();
        });
        // The shuffle must have moved a significant share of the 4 KiB
        // through the fabric (everything not landing on its own aggregator).
        let s = machine.stats.snapshot();
        assert!(
            s.net_bytes >= 2 * 1024,
            "two-phase shuffle traffic missing: {}",
            s.net_bytes
        );
    }

    #[test]
    fn empty_collective_participation_is_legal() {
        let fs = fs_fixture(4);
        let fs2 = Arc::clone(&fs);
        run_world(Arc::clone(fs.device().machine()), 3, move |comm| {
            let f = MpiFile::create(&comm, &fs2, "/sparse.bin").unwrap();
            // Only rank 1 writes; everyone participates.
            let segs = if comm.rank() == 1 {
                vec![WriteSegment {
                    offset: 0,
                    data: vec![9u8; 128],
                }]
            } else {
                vec![]
            };
            f.write_at_all(&segs).unwrap();
            if comm.rank() == 0 {
                let mut buf = [0u8; 128];
                f.read_at(0, &mut buf).unwrap();
                assert!(buf.iter().all(|&b| b == 9));
            }
            f.close().unwrap();
        });
    }

    #[test]
    fn coalesce_merges_adjacent_pieces() {
        let pieces = vec![(0u64, vec![1; 4]), (4, vec![2; 4]), (16, vec![3; 4])];
        let merged = coalesce(pieces);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].0, 0);
        assert_eq!(merged[0].1.len(), 8);
        assert_eq!(merged[1].0, 16);
    }

    #[test]
    fn split_by_domain_respects_boundaries() {
        let data = vec![0u8; 100];
        let parts = split_by_domain(0, 40, 10, &data);
        // [10,110) over domains [0,40),[40,80),[80,120)
        assert_eq!(parts.len(), 3);
        assert_eq!((parts[0].0, parts[0].1, parts[0].2.len()), (0, 10, 30));
        assert_eq!((parts[1].0, parts[1].1, parts[1].2.len()), (1, 40, 40));
        assert_eq!((parts[2].0, parts[2].1, parts[2].2.len()), (2, 80, 30));
    }
}
