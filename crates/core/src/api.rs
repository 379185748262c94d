//! The pMEMCPY public API (Fig. 2 of the paper, in Rust clothing).
//!
//! ```text
//! pmemcpy::PMEM pmem;                         let mut pmem = Pmem::new();
//! pmem.mmap(filename, comm);                  pmem.mmap(target, &comm)?;
//! pmem.store<T>(id, data);                    pmem.store_scalar(id, v)? / store_slice / store_pod
//! pmem.alloc<T>(id, ndims, dims);             pmem.alloc::<f64>(id, &global_dims)?;
//! pmem.store<T>(id, data, ndims, off, dpp);   pmem.store_block(id, &data, &off, &dims)?;
//! pmem.load<T>(id, ...);                      pmem.load_scalar / load_slice / load_block
//! pmem.load_dims(id, ...);                    pmem.load_dims(id)?;
//! pmem.munmap();                              pmem.munmap()?;
//! ```
//!
//! Dimensions are stored automatically under `"<id>#dims"` — exactly the
//! convention §3 describes — and per-rank blocks under
//! `"<id>#block@o1,o2,..."`, mirroring how ADIOS keeps per-writer blocks.

use crate::element::{pod_from_bytes, slice_as_bytes_mut, Element, Pod};
use crate::error::{PmemCpyError, Result};
use crate::layout::{hashtable::HashtableLayout, hierarchical::HierarchicalLayout, Layout};
use crate::options::Options;
use crate::registry;
use mpi_sim::Comm;
use pmem_sim::{Clock, Machine, PmemDevice, SimTime};
use pserial::Datatype;
use simfs::SimFs;
use std::sync::Arc;

/// Where a [`Pmem`] handle attaches.
pub enum MmapTarget<'a> {
    /// A raw PMEM namespace managed by the PMDK-style pool (devdax-style).
    /// Selects the default layout of §3: one pool, a flat namespace kept in
    /// a persistent hashtable with chaining.
    DevDax(&'a Arc<PmemDevice>),
    /// A directory on a DAX filesystem. Selects §3's alternative layout:
    /// the filesystem's directory tree, one file per variable; a `/` in a
    /// variable id creates a directory.
    Fs { fs: &'a Arc<SimFs>, dir: &'a str },
}

struct Mounted {
    layout: Box<dyn Layout>,
    clock: Arc<Clock>,
    machine: Arc<Machine>,
    device_for_release: Option<Arc<PmemDevice>>,
    /// Kept only to stamp flight-recorder mount/unmount events; `None` for
    /// filesystem layouts (no pool, no recorder).
    pool_for_flight: Option<Arc<pmdk_sim::PmemPool>>,
}

/// The pMEMCPY handle: a key-value view of node-local persistent memory.
pub struct Pmem {
    opts: Options,
    mounted: Option<Mounted>,
}

impl Default for Pmem {
    fn default() -> Self {
        Self::new()
    }
}

impl Pmem {
    /// A handle with the paper's default configuration (BP4 serialization,
    /// PMDK hashtable layout, MAP_SYNC off — "PMCPY-A").
    pub fn new() -> Self {
        Pmem {
            opts: Options::default(),
            mounted: None,
        }
    }

    pub fn with_options(opts: Options) -> Self {
        Pmem {
            opts,
            mounted: None,
        }
    }

    pub fn options(&self) -> &Options {
        &self.opts
    }

    /// Map the PMEM. Collective: every rank of `comm` calls this; rank 0
    /// creates/recovers shared state, the rest attach to it.
    pub fn mmap(&mut self, target: MmapTarget<'_>, comm: &Comm) -> Result<()> {
        if self.mounted.is_some() {
            return Err(PmemCpyError::Config("already mapped".into()));
        }
        self.opts.validate()?;
        let serializer = self.opts.resolve_serializer()?;
        let clock = comm.clock_arc();
        let mounted = match target {
            MmapTarget::DevDax(device) => {
                let shared =
                    registry::shared_pool(&clock, device, "pmemcpy", self.opts.hashtable_buckets)?;
                // Write-behind: attach (and on first arrival recover) the
                // shared WAL + front index before any rank proceeds.
                let write_behind = (self.opts.write_behind)
                    .then(|| shared.write_behind(&clock, self.opts.wal_capacity))
                    .transpose()?;
                comm.barrier();
                let pool = Arc::clone(&shared.pool);
                pool.flight().record(
                    &clock,
                    pmem_sim::EventCode::Mount,
                    0,
                    pool.generation(),
                    comm.rank() as u64,
                );
                // Put-path flush strategy: an explicit options pin wins,
                // otherwise the pool's superblock-cached autotuner verdict.
                let flush_strategy = self
                    .opts
                    .flush_strategy
                    .unwrap_or_else(|| pool.flush_strategy());
                pool.flight().record(
                    &clock,
                    pmem_sim::EventCode::ProfileMount,
                    0,
                    pool.device_profile_id() as u64,
                    flush_strategy.code() as u64,
                );
                let inner = HashtableLayout::new(
                    &clock,
                    device,
                    shared,
                    serializer,
                    self.opts.map_sync,
                    flush_strategy,
                );
                let layout: Box<dyn Layout> = match write_behind {
                    Some(state) => {
                        Box::new(crate::write_behind::WriteBehindLayout::new(inner, state))
                    }
                    None => Box::new(inner),
                };
                Mounted {
                    layout,
                    machine: Arc::clone(device.machine()),
                    clock,
                    device_for_release: Some(Arc::clone(device)),
                    pool_for_flight: Some(pool),
                }
            }
            MmapTarget::Fs { fs, dir } => {
                if self.opts.write_behind {
                    return Err(PmemCpyError::Config(
                        "write_behind needs a DevDax target (the WAL lives in its pool)".into(),
                    ));
                }
                if comm.rank() == 0 {
                    fs.mkdir_p(&clock, dir)?;
                }
                comm.barrier();
                Mounted {
                    layout: Box::new(HierarchicalLayout::new(
                        fs,
                        dir,
                        serializer,
                        self.opts.map_sync,
                    )),
                    machine: Arc::clone(fs.device().machine()),
                    clock,
                    device_for_release: None,
                    pool_for_flight: None,
                }
            }
        };
        self.mounted = Some(mounted);
        Ok(())
    }

    /// Unmap. Data stays durable; the handle returns to the unmapped state.
    /// Under write-behind this first drains the WAL into the durable layout
    /// (every rank calls it; after the first drain the log is empty), so the
    /// volatile front index is never the only place recent puts live once
    /// the pool handles go away.
    pub fn munmap(&mut self) -> Result<()> {
        let m = self.mounted.take().ok_or(PmemCpyError::NotMapped)?;
        if let Err(e) = m
            .layout
            .checkpoint(&m.clock)
            .and_then(|_| m.layout.quiesce(&m.clock))
        {
            // A failed drain or count fold must leave the handle mapped:
            // the caller can retry, and the interned pool (with its
            // write-behind state) is only released on a successful unmap.
            self.mounted = Some(m);
            return Err(e);
        }
        m.machine.charge_syscall(&m.clock);
        if let Some(pool) = &m.pool_for_flight {
            // Recorded after the drain + quiesce succeed: a trailing Unmount
            // event is the doctor's "clean shutdown" witness.
            pool.flight()
                .record(&m.clock, pmem_sim::EventCode::Unmount, 0, 0, 0);
        }
        if let Some(device) = m.device_for_release {
            registry::release_pool(&device);
        }
        Ok(())
    }

    /// Force a write-behind checkpoint: drain WAL records into the durable
    /// layout and truncate the log. A no-op returning `Ok(0)` for inline
    /// layouts. Checkpoint work is charged to the background checkpoint
    /// lane, not this rank's clock.
    pub fn checkpoint(&self) -> Result<usize> {
        let m = self.m()?;
        m.layout.checkpoint(&m.clock)
    }

    pub fn is_mapped(&self) -> bool {
        self.mounted.is_some()
    }

    fn m(&self) -> Result<&Mounted> {
        self.mounted.as_ref().ok_or(PmemCpyError::NotMapped)
    }

    /// Crate-internal: the active layout + machine (drain support).
    pub(crate) fn layout_and_machine(&self) -> Result<(&dyn crate::layout::Layout, &Arc<Machine>)> {
        let m = self.m()?;
        Ok((m.layout.as_ref(), &m.machine))
    }

    /// Crate-internal: the handle's clock.
    pub(crate) fn clock(&self) -> Result<&Clock> {
        Ok(&self.m()?.clock)
    }

    /// Check a decoded dtype against the requested element type. The raw
    /// serializer erases type metadata, so the check is skipped for it.
    pub(crate) fn check_dtype<T: Element>(&self, id: &str, found: Datatype) -> Result<()> {
        if self.opts.serializer == "raw" {
            return Ok(());
        }
        if found != T::DTYPE {
            return Err(PmemCpyError::ShapeMismatch {
                id: id.to_string(),
                detail: format!("stored dtype {found:?}, requested {:?}", T::DTYPE),
            });
        }
        Ok(())
    }

    /// The handle's virtual clock (its rank's clock).
    pub fn now(&self) -> SimTime {
        self.mounted
            .as_ref()
            .map(|m| m.clock.now())
            .unwrap_or(SimTime::ZERO)
    }

    /// Every `store_*` / `alloc` / `set_attr` below is a write batch of one:
    /// `crate::batch` is the one place a record's key and `VarMeta` are built.
    fn store_one<'a>(
        &'a self,
        stage: impl FnOnce(&mut crate::batch::WriteBatch<'a>) -> Result<()>,
    ) -> Result<()> {
        let mut one = self.batch();
        stage(&mut one)?;
        one.commit()
    }

    // ---- scalars, slices, PODs ----

    /// Store a scalar under `id`.
    pub fn store_scalar<T: Element>(&self, id: &str, value: T) -> Result<()> {
        self.store_one(|one| one.store_scalar(id, value))
    }

    /// Load a scalar.
    pub fn load_scalar<T: Element>(&self, id: &str) -> Result<T> {
        let m = self.m()?;
        let mut out = [unsafe { std::mem::zeroed::<T>() }; 1];
        let hdr = m
            .layout
            .load_into(&m.clock, id, slice_as_bytes_mut(&mut out))?;
        self.check_dtype::<T>(id, hdr.meta.dtype)?;
        Ok(out[0])
    }

    /// Store a dense 1-D array under `id` (dims recorded automatically).
    pub fn store_slice<T: Element>(&self, id: &str, data: &[T]) -> Result<()> {
        self.store_one(|one| one.store_slice(id, data))
    }

    /// Load a dense 1-D array. A read batch of one: a single lookup returns
    /// header + payload (no separate `stat` round).
    pub fn load_slice<T: Element>(&self, id: &str) -> Result<Vec<T>> {
        let mut batch = self.read_batch();
        let h = batch.load_slice::<T>(id)?;
        let mut results = batch.commit()?;
        Ok(results.take(h))
    }

    /// Load a dense 1-D array into a caller-provided buffer (no allocation;
    /// the buffer length must match the stored element count).
    pub fn load_slice_into<T: Element>(&self, id: &str, dst: &mut [T]) -> Result<()> {
        let m = self.m()?;
        let hdr = m.layout.load_into(&m.clock, id, slice_as_bytes_mut(dst))?;
        self.check_dtype::<T>(id, hdr.meta.dtype)?;
        Ok(())
    }

    /// Store a fixed-layout struct ("compound type").
    pub fn store_pod<T: Pod>(&self, id: &str, value: &T) -> Result<()> {
        self.store_one(|one| one.store_pod(id, value))
    }

    /// Load a fixed-layout struct.
    pub fn load_pod<T: Pod>(&self, id: &str) -> Result<T> {
        let m = self.m()?;
        let mut bytes = vec![0u8; std::mem::size_of::<T>()];
        m.layout.load_into(&m.clock, id, &mut bytes)?;
        Ok(pod_from_bytes(&bytes))
    }

    // ---- decomposed N-D arrays (Fig. 3's parallel-write pattern) ----

    /// Declare the global dimensions of a decomposed array (Fig. 2's
    /// `alloc`). Stores the `"<id>#dims"` companion entry.
    pub fn alloc<T: Element>(&self, id: &str, global_dims: &[u64]) -> Result<()> {
        self.store_one(|one| one.alloc::<T>(id, global_dims))
    }

    /// Query an array's element type and global dimensions (Fig. 2's
    /// `load_dims`).
    pub fn load_dims(&self, id: &str) -> Result<(Datatype, Vec<u64>)> {
        let mut batch = self.read_batch();
        let h = batch.load_bytes(dims_key(id));
        let mut results = batch.commit()?;
        decode_dims_payload(id, &results.take(h))
    }

    /// Store this rank's block of the decomposed array `id` (Fig. 2's
    /// subarray `store`). Bounds are checked against the `alloc`'d dims.
    pub fn store_block<T: Element>(
        &self,
        id: &str,
        data: &[T],
        offsets: &[u64],
        dims: &[u64],
    ) -> Result<()> {
        self.store_one(|one| one.store_block(id, data, offsets, dims))
    }

    /// Load the block previously stored at `offsets`/`dims` into `dst`
    /// (the symmetric-read pattern of §4.1).
    pub fn load_block<T: Element>(
        &self,
        id: &str,
        dst: &mut [T],
        offsets: &[u64],
        dims: &[u64],
    ) -> Result<()> {
        let m = self.m()?;
        check_elements(id, dims, dst.len())?;
        let key = block_key(id, offsets);
        let hdr = m
            .layout
            .load_into(&m.clock, &key, slice_as_bytes_mut(dst))?;
        self.check_dtype::<T>(id, hdr.meta.dtype)?;
        Ok(())
    }

    // ---- attributes ----

    /// Attach a string attribute to a variable (HDF5/ADIOS-style metadata:
    /// units, provenance, ...). Stored under `"<id>#attr:<name>"`.
    pub fn set_attr(&self, id: &str, name: &str, value: &str) -> Result<()> {
        self.store_one(|one| one.set_attr(id, name, value))
    }

    /// Read a string attribute.
    pub fn get_attr(&self, id: &str, name: &str) -> Result<String> {
        let mut batch = self.read_batch();
        let h = batch.load_bytes(attr_key(id, name));
        let mut results = batch.commit()?;
        String::from_utf8(results.take(h)).map_err(|e| PmemCpyError::ShapeMismatch {
            id: id.to_string(),
            detail: format!("attribute is not utf-8: {e}"),
        })
    }

    /// List attribute names attached to `id`.
    pub fn attrs(&self, id: &str) -> Result<Vec<String>> {
        let m = self.m()?;
        let prefix = format!("{id}#attr:");
        let mut out: Vec<String> = m
            .layout
            .keys(&m.clock)
            .into_iter()
            .filter_map(|k| k.strip_prefix(&prefix).map(|s| s.to_string()))
            .collect();
        out.sort();
        Ok(out)
    }

    // ---- namespace ----

    pub fn exists(&self, id: &str) -> bool {
        self.m()
            .map(|m| m.layout.exists(&m.clock, id))
            .unwrap_or(false)
    }

    /// Remove a variable (and its `#dims` companion, if present).
    pub fn remove(&self, id: &str) -> Result<bool> {
        let m = self.m()?;
        let main = m.layout.remove(&m.clock, id)?;
        let _ = m.layout.remove(&m.clock, &dims_key(id))?;
        Ok(main)
    }

    /// All stored keys, including `#dims` and `#block@` companions.
    pub fn keys(&self) -> Result<Vec<String>> {
        let m = self.m()?;
        Ok(m.layout.keys(&m.clock))
    }

    /// Copy out `id`'s raw serialized record exactly as stored (header +
    /// payload). Diagnostics/test support for byte-level comparisons.
    pub fn raw_record(&self, id: &str) -> Result<Vec<u8>> {
        let m = self.m()?;
        m.layout.raw_value(&m.clock, id)
    }

    /// Open a [`WriteBatch`](crate::batch::WriteBatch): stage any number of
    /// `store_*` calls, then [`commit`](crate::batch::WriteBatch::commit)
    /// them as group-committed bulk reservations — one pool transaction and
    /// one allocator pass per group instead of one per key.
    pub fn batch(&self) -> crate::batch::WriteBatch<'_> {
        crate::batch::WriteBatch::new(self)
    }

    /// Open a [`ReadBatch`](crate::read::ReadBatch): stage any number of
    /// `load_*` calls, then [`commit`](crate::read::ReadBatch::commit) them
    /// as one group lookup per [`crate::batch::MAX_GROUP_KEYS`] keys — keys
    /// sharing a metadata bucket are resolved by a single chain walk, and
    /// every header is read exactly once.
    pub fn read_batch(&self) -> crate::read::ReadBatch<'_> {
        crate::read::ReadBatch::new(self)
    }
}

pub(crate) fn dims_key(id: &str) -> String {
    format!("{id}#dims")
}

pub(crate) fn attr_key(id: &str, name: &str) -> String {
    format!("{id}#attr:{name}")
}

pub(crate) fn block_key(id: &str, offsets: &[u64]) -> String {
    let coords: Vec<String> = offsets.iter().map(|o| o.to_string()).collect();
    format!("{id}#block@{}", coords.join(","))
}

/// Encode the `"<id>#dims"` companion payload: dtype code, ndims, dims.
pub(crate) fn encode_dims_payload(dtype: Datatype, global_dims: &[u64]) -> Vec<u8> {
    let mut payload = Vec::with_capacity(2 + global_dims.len() * 8);
    payload.push(dtype.code());
    payload.push(global_dims.len() as u8);
    for &d in global_dims {
        payload.extend_from_slice(&d.to_le_bytes());
    }
    payload
}

/// Decode a `"<id>#dims"` companion payload back into (dtype, dims).
pub(crate) fn decode_dims_payload(id: &str, payload: &[u8]) -> Result<(Datatype, Vec<u64>)> {
    if payload.len() < 2 {
        return Err(PmemCpyError::ShapeMismatch {
            id: id.to_string(),
            detail: "truncated #dims record".into(),
        });
    }
    let dtype = Datatype::from_code(payload[0])?;
    let nd = payload[1] as usize;
    if payload.len() != 2 + nd * 8 {
        return Err(PmemCpyError::ShapeMismatch {
            id: id.to_string(),
            detail: "malformed #dims record".into(),
        });
    }
    let dims = (0..nd)
        .map(|i| u64::from_le_bytes(payload[2 + i * 8..10 + i * 8].try_into().unwrap()))
        .collect();
    Ok((dtype, dims))
}

pub(crate) fn validate_block(
    id: &str,
    global: &[u64],
    offsets: &[u64],
    dims: &[u64],
) -> Result<()> {
    if global.len() != offsets.len() || global.len() != dims.len() {
        return Err(PmemCpyError::ShapeMismatch {
            id: id.to_string(),
            detail: format!(
                "rank mismatch: global {}D, offsets {}D, dims {}D",
                global.len(),
                offsets.len(),
                dims.len()
            ),
        });
    }
    for d in 0..global.len() {
        // An `offset + extent` that overflows is past any global extent.
        if offsets[d]
            .checked_add(dims[d])
            .is_none_or(|end| end > global[d])
        {
            return Err(PmemCpyError::OutOfBounds {
                id: id.to_string(),
                detail: format!(
                    "dim {d}: offset {} + extent {} > global {}",
                    offsets[d], dims[d], global[d]
                ),
            });
        }
    }
    Ok(())
}

/// `dims` must multiply out to exactly the `have` elements of the caller's
/// buffer; a product that overflows matches no buffer.
pub(crate) fn check_elements(id: &str, dims: &[u64], have: usize) -> Result<()> {
    let elements = dims.iter().try_fold(1u64, |n, &d| n.checked_mul(d));
    if elements == Some(have as u64) {
        return Ok(());
    }
    let says = elements.map_or("more than 2^64".to_string(), |n| n.to_string());
    Err(PmemCpyError::ShapeMismatch {
        id: id.to_string(),
        detail: format!("dims say {says} elements, buffer has {have}"),
    })
}
