//! Data-layout policies (§3 "Data Layout").
//!
//! A layout decides where a serialized variable record lives on the PMEM and
//! how its key is resolved. Both implementations stream records through
//! [`crate::sink::MappingSink`]/[`crate::sink::MappingSource`], so the
//! zero-staging property holds regardless of layout.
//!
//! Both directions are batched end to end. Writes: [`Layout::store_many`]
//! is the per-layout bulk seam (one pool transaction / one batched namespace
//! pass for a whole group of keys), inside which [`fill`] serializes each
//! value straight into its window. Reads mirror that shape:
//! [`Layout::locate_many`] is the per-layout bulk lookup
//! (one chain walk per touched bucket on the hashtable layout), and the
//! generic [`Layout::load_many`] pipeline decodes each record straight out
//! of its mapping into a caller-chosen buffer. A single-key store is a
//! write batch of one ([`crate::batch`]) and a single-key load a read batch
//! of one ([`crate::read`]), so there is exactly one code path per
//! direction.

pub(crate) mod hashtable;
pub(crate) mod hierarchical;

use crate::error::{PmemCpyError, Result};
use crate::sink::{MappingSink, MappingSource};
use pmem_sim::{Clock, DaxMapping, Machine};
use pserial::{ReadSource, Serializer, VarHeader, VarMeta};
use std::sync::Arc;

/// One key's worth of work for a batched store.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PutRequest<'a> {
    pub key: &'a str,
    pub meta: &'a VarMeta,
    pub payload: &'a [u8],
}

/// Charge the CPU half of serializing every put and return each record's
/// length, in order. It is charged before the layout's transaction begins:
/// the transaction then holds its lane for media writes only, and a charge
/// made outside an atomic section is what owes the deterministic scheduler
/// its hand-off before the next one. The group's media bytes are booked
/// against its logical payload bytes for write amplification, both in
/// modelled (byte-scaled) units like the machine's media counters.
pub(crate) fn serialize(layout: &dyn Layout, clock: &Clock, puts: &[PutRequest<'_>]) -> Vec<u64> {
    let (serializer, machine) = (layout.serializer(), layout.machine());
    for put in puts {
        let bytes = put.payload.len() as u64;
        let _span = machine
            .phase(clock, "put", "put.serialize")
            .arg("bytes", bytes);
        machine.charge_serialize(clock, bytes, serializer.cpu_cost_factor());
    }
    let lens: Vec<u64> = (puts.iter())
        .map(|p| serializer.serialized_len(p.meta, p.payload.len() as u64))
        .collect();
    if machine.metrics_enabled() {
        let scale = machine.config().byte_scale;
        let logical: u64 = puts.iter().map(|p| p.payload.len() as u64).sum();
        machine.metric_counter_add("put.logical_bytes", logical * scale);
        machine.metric_counter_add("put.media_bytes", lens.iter().sum::<u64>() * scale);
    }
    lens
}

/// The fill of every layout's put: stream `put`'s record straight into the
/// `len`-byte window at `offset` of `mapping` — no DRAM staging — behind
/// `head`, the metadata that shares its first store (the hashtable's block
/// and entry headers of a small record; empty elsewhere), and flush the
/// whole once. The fence that makes it durable is the layout's: the
/// hashtable's is the carve's or the commit's before the group is
/// published, the hierarchical layout's the file's own.
pub(crate) fn fill(
    layout: &dyn Layout,
    clock: &Clock,
    put: &PutRequest<'_>,
    mapping: &DaxMapping,
    (offset, len): (usize, usize),
    head: [&[u8]; 2],
) -> Result<()> {
    let _span = (layout.machine())
        .phase(clock, "put", "put.memcpy")
        .arg("bytes", len as u64);
    let mut sink = MappingSink::headed(mapping, clock, offset, len, head)?;
    layout
        .serializer()
        .write_var(put.meta, put.payload, &mut sink)?;
    // The window's last store must precede the flush that covers it.
    let written = sink.finish();
    debug_assert_eq!(written, len);
    let head = head.map(<[u8]>::len);
    let meta = head.iter().sum::<usize>();
    mapping.flush_headed(clock, offset - meta, meta + len, &head);
    Ok(())
}

/// Where a key's record lives, resolved by [`Layout::locate_many`].
pub(crate) struct Located {
    pub mapping: Arc<DaxMapping>,
    pub offset: usize,
    pub len: usize,
    /// Per-key file mappings (hierarchical layout) are unmapped once the
    /// record is consumed; the pool-wide mapping stays live.
    pub unmap_after_load: bool,
}

/// Supplies payload destinations during a batched load: once a record's
/// header is decoded, the consumer hands back the buffer its payload should
/// stream into (sized exactly `hdr.payload_len`, validated by the pipeline).
pub(crate) trait ReadConsumer {
    /// Destination buffer for `keys[idx]`, given its decoded header.
    fn dst(&mut self, idx: usize, hdr: &VarHeader) -> Result<&mut [u8]>;
}

/// The per-record decode stage, whatever the record is read out of (a PMEM
/// mapping, a re-serialized front-index entry): header, the consumer's
/// destination for it, the length check, payload.
pub(crate) fn decode_into(
    serializer: &'static dyn Serializer,
    src: &mut dyn ReadSource,
    key: &str,
    idx: usize,
    consumer: &mut dyn ReadConsumer,
) -> Result<VarHeader> {
    let hdr = serializer.read_header(src)?;
    let dst = consumer.dst(idx, &hdr)?;
    if hdr.payload_len != dst.len() as u64 {
        return Err(PmemCpyError::ShapeMismatch {
            id: key.to_string(),
            detail: format!(
                "payload {} bytes, buffer {} bytes",
                hdr.payload_len,
                dst.len()
            ),
        });
    }
    serializer.read_payload(src, dst)?;
    Ok(hdr)
}

/// Decode one located record straight from PMEM into the caller's buffer,
/// then charge the deserialize — the per-record stage of
/// [`Layout::load_many`].
fn load_one_located(
    serializer: &'static dyn Serializer,
    machine: &Machine,
    clock: &Clock,
    key: &str,
    loc: &Located,
    idx: usize,
    consumer: &mut dyn ReadConsumer,
) -> Result<VarHeader> {
    let hdr = {
        let mut span = machine.phase(clock, "get", "get.memcpy");
        let mut src = MappingSource::new(&loc.mapping, clock, loc.offset, loc.len)?;
        let hdr = decode_into(serializer, &mut src, key, idx, consumer)?;
        span.set_arg("bytes", hdr.payload_len);
        hdr
    };
    let _span = machine
        .phase(clock, "get", "get.deserialize")
        .arg("bytes", hdr.payload_len);
    machine.charge_serialize(clock, hdr.payload_len, serializer.cpu_cost_factor());
    Ok(hdr)
}

/// A storage layout for serialized variable records.
pub(crate) trait Layout: Send + Sync {
    /// The serializer records are encoded with.
    fn serializer(&self) -> &'static dyn Serializer;

    /// The simulated machine charges land on.
    fn machine(&self) -> &Arc<Machine>;

    /// Store a group of records through the layout's bulk seam, each
    /// serialized straight into its window by [`fill`] — no DRAM staging.
    /// The group is atomic where the layout can make it so: the hashtable
    /// layout writes every value and then publishes the group in one pool
    /// transaction (a crash or an error rolls the whole group back), the
    /// hierarchical layout batches its directory creation.
    fn store_many(&self, clock: &Clock, puts: &[PutRequest<'_>]) -> Result<()>;

    /// Resolve where every key's record lives, through the layout's bulk
    /// lookup seam: the hashtable layout groups keys by bucket and walks
    /// each chain once (under its stripe, one header read per hop), the
    /// hierarchical layout maps each file. Errors with `NotFound` for the
    /// first missing key.
    fn locate_many(&self, clock: &Clock, keys: &[&str]) -> Result<Vec<Located>>;

    /// Load a group of records in one pass per key: bulk-resolve every
    /// location, then for each record decode the header, obtain the
    /// destination from `consumer`, and stream the payload straight out of
    /// the mapping — the read-side mirror of [`Layout::store_many`], and
    /// the single code path behind [`crate::ReadBatch`]. Returns the decoded
    /// headers in key order.
    fn load_many(
        &self,
        clock: &Clock,
        keys: &[&str],
        consumer: &mut dyn ReadConsumer,
    ) -> Result<Vec<VarHeader>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let serializer = self.serializer();
        let machine = Arc::clone(self.machine());
        let located = {
            let _span = machine
                .phase(clock, "get", "get.lookup")
                .arg("keys", keys.len() as u64);
            self.locate_many(clock, keys)?
        };
        let mut hdrs = Vec::with_capacity(located.len());
        let mut first_err: Option<PmemCpyError> = None;
        for (i, loc) in located.iter().enumerate() {
            if first_err.is_none() {
                match load_one_located(serializer, &machine, clock, keys[i], loc, i, consumer) {
                    Ok(hdr) => hdrs.push(hdr),
                    Err(e) => first_err = Some(e),
                }
            }
            // Every per-key mapping is released, even the ones after an
            // error that were located but never decoded.
            if loc.unmap_after_load {
                loc.mapping.unmap(clock);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(hdrs),
        }
    }

    /// Decode just the header of `key`'s record.
    fn stat(&self, clock: &Clock, key: &str) -> Result<VarHeader> {
        let loc = self
            .locate_many(clock, &[key])?
            .pop()
            .expect("locate_many returns one location per key");
        let result = (|| {
            let mut src = MappingSource::new(&loc.mapping, clock, loc.offset, loc.len)?;
            Ok(self.serializer().read_header(&mut src)?)
        })();
        if loc.unmap_after_load {
            loc.mapping.unmap(clock);
        }
        result
    }

    /// Whether `key` exists.
    fn exists(&self, clock: &Clock, key: &str) -> bool;

    /// Remove `key`; Ok(true) if it existed.
    fn remove(&self, clock: &Clock, key: &str) -> Result<bool>;

    /// Enumerate all keys (unspecified order).
    fn keys(&self, clock: &Clock) -> Vec<String>;

    /// Stream `key`'s raw serialized record (header + payload, exactly as
    /// stored) to `emit` in chunks of at most `chunk` bytes. Zero-copy:
    /// each chunk is borrowed straight from the mapping — no DRAM staging
    /// buffer, same fault/read charges as a staged load. Returns the record
    /// length. Used by the burst-buffer drain, which flushes data "in the
    /// same format as it was produced" (§3) without staging records.
    fn stream_raw(
        &self,
        clock: &Clock,
        key: &str,
        chunk: usize,
        emit: &mut dyn FnMut(&[u8]) -> Result<()>,
    ) -> Result<u64> {
        let loc = self
            .locate_many(clock, &[key])?
            .pop()
            .expect("locate_many returns one location per key");
        let chunk = chunk.max(1);
        let result = (|| {
            let mut done = 0usize;
            while done < loc.len {
                let n = (loc.len - done).min(chunk);
                loc.mapping
                    .load_borrowed(clock, loc.offset + done, n, |bytes| emit(bytes))?;
                done += n;
            }
            Ok(loc.len as u64)
        })();
        if loc.unmap_after_load {
            loc.mapping.unmap(clock);
        }
        result
    }

    /// Copy out `key`'s raw serialized record into one buffer (diagnostics
    /// and tests; the drain streams via [`Layout::stream_raw`] instead).
    fn raw_value(&self, clock: &Clock, key: &str) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.stream_raw(clock, key, 1 << 18, &mut |chunk| {
            out.extend_from_slice(chunk);
            Ok(())
        })?;
        Ok(out)
    }

    /// Flush any write-behind state into durable layout storage (see
    /// [`crate::write_behind`]): drains WAL records and truncates the log.
    /// Inline layouts have nothing to flush. Returns the number of WAL
    /// records drained.
    fn checkpoint(&self, _clock: &Clock) -> Result<usize> {
        Ok(0)
    }

    /// Fold volatile bookkeeping into persistent state at a quiesce point
    /// (munmap, checkpoint boundaries): the hashtable layout folds its
    /// sharded entry-count deltas into the table header. Free when nothing
    /// changed; layouts without volatile counters have nothing to do.
    fn quiesce(&self, _clock: &Clock) -> Result<()> {
        Ok(())
    }
}
