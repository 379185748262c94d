//! The simulated VFS: inodes, descriptors, and the kernel I/O cost model.
//!
//! Two mount modes reproduce the storage stacks the paper discusses:
//!
//! * [`MountMode::Dax`] — EXT4-DAX on PMEM: `read`/`write` syscalls copy
//!   *directly* between the user buffer and the PMEM media (one copy, no
//!   page cache), and files can be memory-mapped (with or without MAP_SYNC)
//!   for zero-copy access. This is the mount every library in the paper's
//!   evaluation runs on.
//! * [`MountMode::PageCache`] — a conventional block filesystem: `write`
//!   lands in the DRAM page cache (user→kernel copy) and reaches the media
//!   at `fsync`; `read` misses pull from the media into the cache and then
//!   copy to the user buffer.
//!
//! Metadata durability (journaling) is folded into the syscall cost
//! constant; the paper does not crash-test the filesystem layer.

use crate::error::{FsError, Result};
use crate::extents::{Extent, ExtentAllocator};
use crate::path;
use pmem_sim::sync::Mutex;
use pmem_sim::{Clock, DaxMapping, Machine, PmemDevice};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MountMode {
    /// DAX: direct access, no page cache, mmap-able.
    Dax,
    /// Conventional page-cached block filesystem.
    PageCache,
}

#[derive(Debug)]
struct FileNode {
    extent: Extent,
    size: u64,
    /// PageCache mode: pages resident in DRAM.
    cached: HashSet<u64>,
    /// PageCache mode: resident pages newer than the media.
    dirty: HashSet<u64>,
}

#[derive(Debug)]
enum Node {
    File(FileNode),
    Dir(HashMap<String, u64>),
}

#[derive(Debug)]
struct FsState {
    nodes: HashMap<u64, Node>,
    next_node: u64,
    alloc: ExtentAllocator,
    fds: HashMap<u64, u64>, // fd -> node id
    next_fd: u64,
    /// PageCache mode: max resident pages (None = unbounded) and the
    /// FIFO-of-insertions used for eviction (stale entries skipped lazily).
    cache_capacity: Option<u64>,
    cache_fifo: VecDeque<(u64, u64)>, // (node id, page index)
    cache_resident: u64,
}

/// Kind of a directory entry, for listings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EntryKind {
    File,
    Dir,
}

/// The simulated filesystem over a [`PmemDevice`] partition.
#[derive(Debug)]
pub struct SimFs {
    device: Arc<PmemDevice>,
    mode: MountMode,
    state: Mutex<FsState>,
}

const ROOT: u64 = 0;

impl SimFs {
    /// Mount a filesystem over `[data_start, data_end)` of the device.
    pub fn mount(
        device: Arc<PmemDevice>,
        mode: MountMode,
        data_start: u64,
        data_end: u64,
    ) -> Arc<Self> {
        Self::mount_with_cache(device, mode, data_start, data_end, None)
    }

    /// Mount with a bounded page cache (PageCache mode): at most
    /// `cache_pages` resident pages; exceeding the budget evicts in FIFO
    /// order, writing dirty victims back to the media first.
    pub fn mount_with_cache(
        device: Arc<PmemDevice>,
        mode: MountMode,
        data_start: u64,
        data_end: u64,
        cache_pages: Option<u64>,
    ) -> Arc<Self> {
        assert!(data_end <= device.size() as u64 && data_start <= data_end);
        let mut nodes = HashMap::new();
        nodes.insert(ROOT, Node::Dir(HashMap::new()));
        Arc::new(SimFs {
            device,
            mode,
            state: Mutex::new(FsState {
                nodes,
                next_node: 1,
                alloc: ExtentAllocator::new(data_start, data_end - data_start),
                fds: HashMap::new(),
                next_fd: 3, // 0/1/2 are taken, as tradition demands
                cache_capacity: cache_pages,
                cache_fifo: VecDeque::new(),
                cache_resident: 0,
            }),
        })
    }

    /// Mount over the entire device.
    pub fn mount_all(device: Arc<PmemDevice>, mode: MountMode) -> Arc<Self> {
        let end = device.size() as u64;
        Self::mount(device, mode, 0, end)
    }

    /// Resident page-cache pages (PageCache mode diagnostics).
    pub fn cached_pages(&self) -> u64 {
        self.state.lock().cache_resident
    }

    /// Record a page becoming resident; evict beyond the budget. Dirty
    /// victims are written back (media write charged to `clock`) first.
    fn cache_insert(&self, clock: &Clock, state: &mut FsState, id: u64, page: u64) {
        let Some(Node::File(f)) = state.nodes.get_mut(&id) else {
            return;
        };
        if !f.cached.insert(page) {
            return; // already resident
        }
        state.cache_fifo.push_back((id, page));
        state.cache_resident += 1;
        let Some(cap) = state.cache_capacity else {
            return;
        };
        let page_bytes = self.page_size();
        while state.cache_resident > cap {
            let Some((vid, vpage)) = state.cache_fifo.pop_front() else {
                break;
            };
            let Some(Node::File(vf)) = state.nodes.get_mut(&vid) else {
                continue;
            };
            if !vf.cached.remove(&vpage) {
                continue; // stale FIFO entry
            }
            state.cache_resident -= 1;
            if vf.dirty.remove(&vpage) {
                // Write the victim back before dropping it.
                self.machine().charge_pmem_write(clock, page_bytes);
            }
        }
    }

    pub fn mode(&self) -> MountMode {
        self.mode
    }

    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.device
    }

    fn machine(&self) -> &Arc<Machine> {
        self.device.machine()
    }

    fn page_size(&self) -> u64 {
        self.machine().config().page_size
    }

    // ---- namespace walks (caller holds the state lock) ----

    fn walk<'a>(state: &'a FsState, comps: &[String]) -> Result<(u64, &'a Node)> {
        let mut id = ROOT;
        let mut node = state.nodes.get(&ROOT).expect("root vanished");
        for c in comps {
            let Node::Dir(children) = node else {
                return Err(FsError::NotADirectory(path::join(comps)));
            };
            id = *children
                .get(c)
                .ok_or_else(|| FsError::NotFound(path::join(comps)))?;
            node = state.nodes.get(&id).expect("dangling directory entry");
        }
        Ok((id, node))
    }

    // ---- directory operations ----

    /// `mkdir -p`: create every missing component. One syscall per created
    /// directory (as a real `mkdir -p` would issue).
    pub fn mkdir_p(&self, clock: &Clock, p: &str) -> Result<()> {
        let comps = path::components(p)?;
        // Charges occur while the filesystem lock is held: keep the
        // deterministic scheduler from parking us mid-operation.
        let _atomic = pmem_sim::atomic_section();
        let mut state = self.state.lock();
        let mut id = ROOT;
        for c in &comps {
            let next = {
                let Node::Dir(children) = state.nodes.get(&id).expect("walk hit missing node")
                else {
                    return Err(FsError::NotADirectory(p.into()));
                };
                children.get(c).copied()
            };
            id = match next {
                Some(child) => {
                    if !matches!(state.nodes.get(&child), Some(Node::Dir(_))) {
                        return Err(FsError::NotADirectory(p.into()));
                    }
                    child
                }
                None => {
                    self.machine().charge_syscall(clock);
                    let new_id = state.next_node;
                    state.next_node += 1;
                    state.nodes.insert(new_id, Node::Dir(HashMap::new()));
                    match state.nodes.get_mut(&id) {
                        Some(Node::Dir(children)) => children.insert(c.clone(), new_id),
                        _ => unreachable!("parent verified as directory"),
                    };
                    new_id
                }
            };
        }
        Ok(())
    }

    /// List a directory's entries (name, kind), sorted by name.
    pub fn list_dir(&self, p: &str) -> Result<Vec<(String, EntryKind)>> {
        let comps = path::components(p)?;
        let state = self.state.lock();
        let (_, node) = Self::walk(&state, &comps)?;
        let Node::Dir(children) = node else {
            return Err(FsError::NotADirectory(p.into()));
        };
        let mut out: Vec<(String, EntryKind)> = children
            .iter()
            .map(|(name, id)| {
                let kind = match state.nodes.get(id) {
                    Some(Node::Dir(_)) => EntryKind::Dir,
                    _ => EntryKind::File,
                };
                (name.clone(), kind)
            })
            .collect();
        out.sort();
        Ok(out)
    }

    pub fn exists(&self, p: &str) -> bool {
        path::components(p)
            .map(|c| Self::walk(&self.state.lock(), &c).is_ok())
            .unwrap_or(false)
    }

    /// Remove a file, releasing its extent. Directories must be removed with
    /// [`SimFs::rmdir`].
    pub fn unlink(&self, clock: &Clock, p: &str) -> Result<()> {
        self.machine().charge_syscall(clock);
        let (parent, name) = path::split_parent(p)?;
        let mut state = self.state.lock();
        let (pid, _) = Self::walk(&state, &parent)?;
        let Some(Node::Dir(children)) = state.nodes.get(&pid) else {
            return Err(FsError::NotADirectory(path::join(&parent)));
        };
        let id = *children
            .get(&name)
            .ok_or_else(|| FsError::NotFound(p.into()))?;
        match state.nodes.get(&id) {
            Some(Node::File(_)) => {}
            Some(Node::Dir(_)) => return Err(FsError::IsADirectory(p.into())),
            None => unreachable!("dangling entry"),
        }
        if let Some(Node::Dir(children)) = state.nodes.get_mut(&pid) {
            children.remove(&name);
        }
        if let Some(Node::File(f)) = state.nodes.remove(&id) {
            state.alloc.release(f.extent);
        }
        Ok(())
    }

    /// Remove an empty directory.
    pub fn rmdir(&self, clock: &Clock, p: &str) -> Result<()> {
        self.machine().charge_syscall(clock);
        let (parent, name) = path::split_parent(p)?;
        let mut state = self.state.lock();
        let (pid, _) = Self::walk(&state, &parent)?;
        let Some(Node::Dir(children)) = state.nodes.get(&pid) else {
            return Err(FsError::NotADirectory(path::join(&parent)));
        };
        let id = *children
            .get(&name)
            .ok_or_else(|| FsError::NotFound(p.into()))?;
        match state.nodes.get(&id) {
            Some(Node::Dir(c)) if c.is_empty() => {}
            Some(Node::Dir(_)) => return Err(FsError::AlreadyExists(format!("{p} not empty"))),
            _ => return Err(FsError::NotADirectory(p.into())),
        }
        if let Some(Node::Dir(children)) = state.nodes.get_mut(&pid) {
            children.remove(&name);
        }
        state.nodes.remove(&id);
        Ok(())
    }

    // ---- file lifecycle ----

    /// Create (or truncate) a file and return a descriptor.
    pub fn create(&self, clock: &Clock, p: &str) -> Result<u64> {
        self.machine().charge_syscall(clock);
        let (parent, name) = path::split_parent(p)?;
        let mut state = self.state.lock();
        let (pid, _) = Self::walk(&state, &parent)?;
        let existing = match state.nodes.get(&pid) {
            Some(Node::Dir(children)) => children.get(&name).copied(),
            _ => return Err(FsError::NotADirectory(path::join(&parent))),
        };
        let id = match existing {
            Some(id) => match state.nodes.get_mut(&id) {
                Some(Node::File(f)) => {
                    // O_TRUNC: drop contents but keep the extent capacity.
                    f.size = 0;
                    f.cached.clear();
                    f.dirty.clear();
                    id
                }
                _ => return Err(FsError::IsADirectory(p.into())),
            },
            None => {
                let id = state.next_node;
                state.next_node += 1;
                state.nodes.insert(
                    id,
                    Node::File(FileNode {
                        extent: Extent { start: 0, len: 0 },
                        size: 0,
                        cached: HashSet::new(),
                        dirty: HashSet::new(),
                    }),
                );
                match state.nodes.get_mut(&pid) {
                    Some(Node::Dir(children)) => children.insert(name, id),
                    _ => unreachable!(),
                };
                id
            }
        };
        let fd = state.next_fd;
        state.next_fd += 1;
        state.fds.insert(fd, id);
        Ok(fd)
    }

    /// Open an existing file.
    pub fn open(&self, clock: &Clock, p: &str) -> Result<u64> {
        self.machine().charge_syscall(clock);
        let comps = path::components(p)?;
        let mut state = self.state.lock();
        let (id, node) = Self::walk(&state, &comps)?;
        if !matches!(node, Node::File(_)) {
            return Err(FsError::IsADirectory(p.into()));
        }
        let fd = state.next_fd;
        state.next_fd += 1;
        state.fds.insert(fd, id);
        Ok(fd)
    }

    /// Close a descriptor.
    pub fn close(&self, clock: &Clock, fd: u64) -> Result<()> {
        self.machine().charge_syscall(clock);
        self.state
            .lock()
            .fds
            .remove(&fd)
            .map(|_| ())
            .ok_or(FsError::BadDescriptor(fd))
    }

    fn node_of(state: &FsState, fd: u64) -> Result<u64> {
        state
            .fds
            .get(&fd)
            .copied()
            .ok_or(FsError::BadDescriptor(fd))
    }

    /// Logical file size.
    pub fn size_of(&self, fd: u64) -> Result<u64> {
        let state = self.state.lock();
        let id = Self::node_of(&state, fd)?;
        match state.nodes.get(&id) {
            Some(Node::File(f)) => Ok(f.size),
            _ => Err(FsError::BadDescriptor(fd)),
        }
    }

    /// Logical size by path.
    pub fn file_size(&self, p: &str) -> Result<u64> {
        let comps = path::components(p)?;
        let state = self.state.lock();
        let (_, node) = Self::walk(&state, &comps)?;
        match node {
            Node::File(f) => Ok(f.size),
            Node::Dir(_) => Err(FsError::IsADirectory(p.into())),
        }
    }

    /// `ftruncate`/preallocate: set the logical size, growing capacity as
    /// needed. Growth rounds capacity to whole pages.
    pub fn set_len(&self, clock: &Clock, fd: u64, len: u64) -> Result<()> {
        self.machine().charge_syscall(clock);
        let _atomic = pmem_sim::atomic_section();
        let mut state = self.state.lock();
        let id = Self::node_of(&state, fd)?;
        self.ensure_capacity(clock, &mut state, id, len)?;
        match state.nodes.get_mut(&id) {
            Some(Node::File(f)) => {
                f.size = len;
                Ok(())
            }
            _ => Err(FsError::BadDescriptor(fd)),
        }
    }

    /// Grow a file's extent to hold `len` bytes, relocating if necessary.
    fn ensure_capacity(&self, clock: &Clock, state: &mut FsState, id: u64, len: u64) -> Result<()> {
        let page = self.page_size();
        let (cur_extent, cur_size) = match state.nodes.get(&id) {
            Some(Node::File(f)) => (f.extent, f.size),
            _ => return Err(FsError::BadDescriptor(0)),
        };
        if len <= cur_extent.len {
            return Ok(());
        }
        let want = len.div_ceil(page) * page;
        let mut ext = cur_extent;
        if cur_extent.len > 0 && state.alloc.grow_in_place(&mut ext, want) {
            if let Some(Node::File(f)) = state.nodes.get_mut(&id) {
                f.extent = ext;
            }
            return Ok(());
        }
        // Relocate: allocate a fresh extent and move the live bytes
        // (device-to-device copy, charged at media rates).
        let new_ext = state.alloc.alloc(want)?;
        if cur_size > 0 {
            let mut buf = vec![0u8; cur_size as usize];
            self.device.read(clock, cur_extent.start as usize, &mut buf);
            self.device.write(clock, new_ext.start as usize, &buf);
        }
        if cur_extent.len > 0 {
            state.alloc.release(cur_extent);
        }
        if let Some(Node::File(f)) = state.nodes.get_mut(&id) {
            f.extent = new_ext;
        }
        Ok(())
    }

    // ---- data plane ----

    /// `pwrite(2)`: write `data` at `off`, extending the file if needed.
    pub fn write_at(&self, clock: &Clock, fd: u64, off: u64, data: &[u8]) -> Result<()> {
        self.machine().charge_syscall(clock);
        let _atomic = pmem_sim::atomic_section();
        let mut state = self.state.lock();
        let id = Self::node_of(&state, fd)?;
        let end = off + data.len() as u64;
        self.ensure_capacity(clock, &mut state, id, end)?;
        let dev_off = {
            let Some(Node::File(f)) = state.nodes.get_mut(&id) else {
                return Err(FsError::BadDescriptor(fd));
            };
            f.size = f.size.max(end);
            (f.extent.start + off) as usize
        };
        match self.mode {
            MountMode::Dax => {
                // Direct path: one copy, user -> media.
                drop(state);
                self.device.write(clock, dev_off, data);
            }
            MountMode::PageCache => {
                // Copy into the page cache now; media write happens at fsync.
                let page = self.page_size();
                for p in off / page..=(end - 1) / page {
                    if let Some(Node::File(f)) = state.nodes.get_mut(&id) {
                        f.dirty.insert(p);
                    }
                    self.cache_insert(clock, &mut state, id, p);
                }
                drop(state);
                self.device.write_untimed(dev_off, data);
                self.machine().charge_dram_copy(clock, data.len() as u64);
            }
        }
        Ok(())
    }

    /// Data-plane-only write: moves the bytes and updates file metadata but
    /// charges no virtual time. For layers that model transfer costs
    /// themselves (e.g. the burst-buffer drain, whose interconnect is the
    /// machine's storage tier).
    pub fn write_at_untimed(&self, clock: &Clock, fd: u64, off: u64, data: &[u8]) -> Result<()> {
        let _atomic = pmem_sim::atomic_section();
        let mut state = self.state.lock();
        let id = Self::node_of(&state, fd)?;
        let end = off + data.len() as u64;
        self.ensure_capacity(clock, &mut state, id, end)?;
        let Some(Node::File(f)) = state.nodes.get_mut(&id) else {
            return Err(FsError::BadDescriptor(fd));
        };
        f.size = f.size.max(end);
        let dev_off = (f.extent.start + off) as usize;
        drop(state);
        self.device.write_untimed(dev_off, data);
        Ok(())
    }

    /// `pread(2)`: read up to `dst.len()` bytes at `off`; returns bytes read.
    pub fn read_at(&self, clock: &Clock, fd: u64, off: u64, dst: &mut [u8]) -> Result<usize> {
        self.machine().charge_syscall(clock);
        let _atomic = pmem_sim::atomic_section();
        let mut state = self.state.lock();
        let id = Self::node_of(&state, fd)?;
        let (fsize, fstart) = {
            let Some(Node::File(f)) = state.nodes.get_mut(&id) else {
                return Err(FsError::BadDescriptor(fd));
            };
            (f.size, f.extent.start)
        };
        if off >= fsize {
            return Ok(0);
        }
        let n = ((fsize - off) as usize).min(dst.len());
        let dev_off = (fstart + off) as usize;
        match self.mode {
            MountMode::Dax => {
                drop(state);
                self.device.read(clock, dev_off, &mut dst[..n]);
            }
            MountMode::PageCache => {
                // Fault in missing pages from the media, then copy to user.
                let page = self.page_size();
                let mut missing = 0u64;
                for p in off / page..=(off + n as u64 - 1) / page {
                    let resident = matches!(
                        state.nodes.get(&id),
                        Some(Node::File(f)) if f.cached.contains(&p)
                    );
                    if !resident {
                        missing += 1;
                        self.cache_insert(clock, &mut state, id, p);
                    }
                }
                drop(state);
                self.device.read_untimed(dev_off, &mut dst[..n]);
                if missing > 0 {
                    self.machine().charge_pmem_read(clock, missing * page);
                }
                self.machine().charge_dram_copy(clock, n as u64);
            }
        }
        Ok(n)
    }

    /// `fsync(2)`: flush dirty pages to the media (PageCache mode); in DAX
    /// mode data is already on the media and only metadata sync is charged.
    pub fn fsync(&self, clock: &Clock, fd: u64) -> Result<()> {
        self.machine().charge_syscall(clock);
        let mut state = self.state.lock();
        let id = Self::node_of(&state, fd)?;
        let Some(Node::File(f)) = state.nodes.get_mut(&id) else {
            return Err(FsError::BadDescriptor(fd));
        };
        if self.mode == MountMode::PageCache {
            let dirty = f.dirty.len() as u64;
            f.dirty.clear();
            let page = self.page_size();
            drop(state);
            if dirty > 0 {
                self.machine().charge_pmem_write(clock, dirty * page);
            }
        }
        Ok(())
    }

    // ---- mmap (DAX mode only) ----

    /// Map the whole file (its current logical size) into the caller's
    /// address space. The paper's pMEMCPY path uses this with
    /// `map_sync=false` (PMCPY-A) or `true` (PMCPY-B).
    pub fn mmap_file(&self, clock: &Clock, p: &str, map_sync: bool) -> Result<Arc<DaxMapping>> {
        if self.mode != MountMode::Dax {
            return Err(FsError::NotMappable("mount is not DAX".into()));
        }
        let comps = path::components(p)?;
        let state = self.state.lock();
        let (_, node) = Self::walk(&state, &comps)?;
        let Node::File(f) = node else {
            return Err(FsError::IsADirectory(p.into()));
        };
        if f.size == 0 {
            return Err(FsError::NotMappable(format!("{p} is empty")));
        }
        let (start, len) = (f.extent.start, f.size);
        drop(state);
        Ok(DaxMapping::new(
            clock,
            Arc::clone(&self.device),
            start as usize,
            len as usize,
            map_sync,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{Machine, PersistenceMode};

    fn fs(mode: MountMode) -> (Arc<SimFs>, Clock) {
        let dev = PmemDevice::new(Machine::chameleon(), 4 << 20, PersistenceMode::Fast);
        (SimFs::mount_all(dev, mode), Clock::new())
    }

    #[test]
    fn create_write_read_round_trip() {
        let (fs, c) = fs(MountMode::Dax);
        let fd = fs.create(&c, "/data.bin").unwrap();
        fs.write_at(&c, fd, 0, b"hello pmem").unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(fs.read_at(&c, fd, 0, &mut buf).unwrap(), 10);
        assert_eq!(&buf, b"hello pmem");
        fs.close(&c, fd).unwrap();
    }

    #[test]
    fn read_stops_at_eof() {
        let (fs, c) = fs(MountMode::Dax);
        let fd = fs.create(&c, "/f").unwrap();
        fs.write_at(&c, fd, 0, b"abc").unwrap();
        let mut buf = [0u8; 10];
        assert_eq!(fs.read_at(&c, fd, 0, &mut buf).unwrap(), 3);
        assert_eq!(fs.read_at(&c, fd, 3, &mut buf).unwrap(), 0);
        assert_eq!(fs.read_at(&c, fd, 100, &mut buf).unwrap(), 0);
    }

    #[test]
    fn sparse_offsets_grow_the_file() {
        let (fs, c) = fs(MountMode::Dax);
        let fd = fs.create(&c, "/f").unwrap();
        fs.write_at(&c, fd, 10_000, b"tail").unwrap();
        assert_eq!(fs.size_of(fd).unwrap(), 10_004);
        let mut buf = [0u8; 4];
        fs.read_at(&c, fd, 10_000, &mut buf).unwrap();
        assert_eq!(&buf, b"tail");
    }

    #[test]
    fn mkdir_p_and_nested_files() {
        let (fs, c) = fs(MountMode::Dax);
        fs.mkdir_p(&c, "/a/b/c").unwrap();
        let fd = fs.create(&c, "/a/b/c/file").unwrap();
        fs.write_at(&c, fd, 0, b"x").unwrap();
        assert!(fs.exists("/a/b"));
        assert!(fs.exists("/a/b/c/file"));
        let entries = fs.list_dir("/a/b").unwrap();
        assert_eq!(entries, vec![("c".to_string(), EntryKind::Dir)]);
        let entries = fs.list_dir("/a/b/c").unwrap();
        assert_eq!(entries, vec![("file".to_string(), EntryKind::File)]);
    }

    #[test]
    fn unlink_releases_space() {
        let (fs, c) = fs(MountMode::Dax);
        let fd = fs.create(&c, "/big").unwrap();
        fs.set_len(&c, fd, 1 << 20).unwrap();
        fs.close(&c, fd).unwrap();
        fs.unlink(&c, "/big").unwrap();
        assert!(!fs.exists("/big"));
        // All space back: another full-size file fits.
        let fd = fs.create(&c, "/big2").unwrap();
        fs.set_len(&c, fd, 4 << 20).unwrap();
    }

    #[test]
    fn open_missing_file_fails() {
        let (fs, c) = fs(MountMode::Dax);
        assert!(matches!(fs.open(&c, "/nope"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn create_truncates_existing() {
        let (fs, c) = fs(MountMode::Dax);
        let fd = fs.create(&c, "/f").unwrap();
        fs.write_at(&c, fd, 0, b"0123456789").unwrap();
        fs.close(&c, fd).unwrap();
        let fd = fs.create(&c, "/f").unwrap();
        assert_eq!(fs.size_of(fd).unwrap(), 0);
    }

    #[test]
    fn dax_write_charges_pmem_not_dram() {
        let (fs, c) = fs(MountMode::Dax);
        let fd = fs.create(&c, "/f").unwrap();
        fs.write_at(&c, fd, 0, &[1u8; 8192]).unwrap();
        let s = fs.device().machine().stats.snapshot();
        assert_eq!(s.pmem_bytes_written, 8192);
        assert_eq!(s.dram_bytes_copied, 0);
    }

    #[test]
    fn pagecache_write_defers_media_until_fsync() {
        let (fs, c) = fs(MountMode::PageCache);
        let fd = fs.create(&c, "/f").unwrap();
        fs.write_at(&c, fd, 0, &[1u8; 8192]).unwrap();
        let s = fs.device().machine().stats.snapshot();
        assert_eq!(s.pmem_bytes_written, 0);
        assert_eq!(s.dram_bytes_copied, 8192);
        fs.fsync(&c, fd).unwrap();
        let s = fs.device().machine().stats.snapshot();
        assert_eq!(s.pmem_bytes_written, 8192);
        // Second fsync with nothing dirty is free of media traffic.
        fs.fsync(&c, fd).unwrap();
        assert_eq!(
            fs.device().machine().stats.snapshot().pmem_bytes_written,
            8192
        );
    }

    #[test]
    fn pagecache_read_hits_skip_the_media() {
        let (fs, c) = fs(MountMode::PageCache);
        let fd = fs.create(&c, "/f").unwrap();
        fs.write_at(&c, fd, 0, &[7u8; 4096]).unwrap();
        let mut buf = [0u8; 4096];
        let before = fs.device().machine().stats.snapshot().pmem_bytes_read;
        fs.read_at(&c, fd, 0, &mut buf).unwrap(); // cached by the write
        assert_eq!(
            fs.device().machine().stats.snapshot().pmem_bytes_read,
            before
        );
        assert_eq!(buf[0], 7);
    }

    #[test]
    fn mmap_round_trips_through_the_mapping() {
        let (fs, c) = fs(MountMode::Dax);
        let fd = fs.create(&c, "/mapped").unwrap();
        fs.set_len(&c, fd, 4096).unwrap();
        fs.close(&c, fd).unwrap();
        let m = fs.mmap_file(&c, "/mapped", false).unwrap();
        m.store(&c, 0, b"via mmap");
        // Visible through the POSIX path too (same media bytes).
        let fd = fs.open(&c, "/mapped").unwrap();
        let mut buf = [0u8; 8];
        fs.read_at(&c, fd, 0, &mut buf).unwrap();
        assert_eq!(&buf, b"via mmap");
    }

    #[test]
    fn mmap_requires_dax() {
        let (fs, c) = fs(MountMode::PageCache);
        let fd = fs.create(&c, "/f").unwrap();
        fs.set_len(&c, fd, 4096).unwrap();
        assert!(matches!(
            fs.mmap_file(&c, "/f", false),
            Err(FsError::NotMappable(_))
        ));
    }

    #[test]
    fn relocation_preserves_contents() {
        let (fs, c) = fs(MountMode::Dax);
        // Interleave two growing files so in-place growth eventually fails.
        let a = fs.create(&c, "/a").unwrap();
        let b = fs.create(&c, "/b").unwrap();
        fs.write_at(&c, a, 0, &[0xAA; 4096]).unwrap();
        fs.write_at(&c, b, 0, &[0xBB; 4096]).unwrap();
        fs.write_at(&c, a, 4096, &[0xAA; 65536]).unwrap(); // forces relocation of /a
        let mut buf = vec![0u8; 4096 + 65536];
        fs.read_at(&c, a, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xAA));
        let mut buf = vec![0u8; 4096];
        fs.read_at(&c, b, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0xBB));
    }

    #[test]
    fn bounded_cache_evicts_beyond_budget() {
        let dev = PmemDevice::new(Machine::chameleon(), 4 << 20, PersistenceMode::Fast);
        // Budget: 8 pages.
        let fs = SimFs::mount_with_cache(dev, MountMode::PageCache, 0, 4 << 20, Some(8));
        let c = Clock::new();
        let fd = fs.create(&c, "/big").unwrap();
        // Write 16 pages: only 8 stay resident.
        fs.write_at(&c, fd, 0, &[7u8; 16 * 4096]).unwrap();
        assert_eq!(fs.cached_pages(), 8);
        // Evicted dirty pages were written back to the media.
        let s = fs.device().machine().stats.snapshot();
        assert!(
            s.pmem_bytes_written >= 8 * 4096,
            "writeback missing: {}",
            s.pmem_bytes_written
        );
        // Data is still correct after eviction.
        let mut buf = vec![0u8; 16 * 4096];
        fs.read_at(&c, fd, 0, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 7));
    }

    #[test]
    fn evicted_pages_miss_on_reread() {
        let dev = PmemDevice::new(Machine::chameleon(), 4 << 20, PersistenceMode::Fast);
        let fs = SimFs::mount_with_cache(dev, MountMode::PageCache, 0, 4 << 20, Some(4));
        let c = Clock::new();
        let fd = fs.create(&c, "/f").unwrap();
        fs.write_at(&c, fd, 0, &[1u8; 8 * 4096]).unwrap();
        fs.fsync(&c, fd).unwrap();
        // The first 4 pages were evicted; re-reading them hits the media.
        let before = fs.device().machine().stats.snapshot().pmem_bytes_read;
        let mut buf = vec![0u8; 4 * 4096];
        fs.read_at(&c, fd, 0, &mut buf).unwrap();
        let after = fs.device().machine().stats.snapshot().pmem_bytes_read;
        assert!(after >= before + 4 * 4096, "expected media re-reads");
    }

    #[test]
    fn unbounded_cache_keeps_everything() {
        let dev = PmemDevice::new(Machine::chameleon(), 4 << 20, PersistenceMode::Fast);
        let fs = SimFs::mount_all(dev, MountMode::PageCache);
        let c = Clock::new();
        let fd = fs.create(&c, "/f").unwrap();
        fs.write_at(&c, fd, 0, &[1u8; 32 * 4096]).unwrap();
        assert_eq!(fs.cached_pages(), 32);
    }

    #[test]
    fn syscall_accounting_matches_call_count() {
        let (fs, c) = fs(MountMode::Dax);
        let base = fs.device().machine().stats.snapshot().syscalls;
        let fd = fs.create(&c, "/f").unwrap(); // 1
        fs.write_at(&c, fd, 0, b"x").unwrap(); // 2
        let mut b = [0u8; 1];
        fs.read_at(&c, fd, 0, &mut b).unwrap(); // 3
        fs.fsync(&c, fd).unwrap(); // 4
        fs.close(&c, fd).unwrap(); // 5
        assert_eq!(fs.device().machine().stats.snapshot().syscalls - base, 5);
    }
}
