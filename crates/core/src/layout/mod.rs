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
//! [`Layout::locate_many`] is the per-layout bulk lookup (one chain walk
//! per touched bucket on the hashtable layout, the front index first under
//! write-behind), and every read — the `load_many` pipeline, `stat`,
//! `stream_raw`, `raw_value` — is derived from it, decoding each record
//! straight out of where it lives into a caller-chosen buffer. A
//! single-key store is a write batch of one ([`crate::batch`]) and a
//! single-key load a read batch of one ([`crate::read`]), so there is
//! exactly one code path per direction.

pub(crate) mod hashtable;
pub(crate) mod hierarchical;

use crate::error::{PmemCpyError, Result};
use crate::sink::{load_split, MappingSink, MappingSource};
use pmem_sim::{Clock, DaxMapping, Machine};
use pserial::{ReadSource, SerialError, Serializer, SliceSource, VarHeader, VarMeta};
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
/// and entry headers, of every record; empty elsewhere), and flush the
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
pub(crate) enum Located {
    /// `len` bytes at `offset` of a PMEM mapping, the first `header` of
    /// them the record's header where an entry names its length (the
    /// hashtable layout's; such a record is read in one load). Per-key
    /// file mappings (hierarchical layout) name none, and are unmapped once
    /// the record is consumed (`unmap_after_load`); the pool-wide mapping
    /// stays live.
    Mapped {
        mapping: Arc<DaxMapping>,
        offset: usize,
        len: usize,
        header: Option<usize>,
        unmap_after_load: bool,
    },
    /// A write-behind front hit: the record re-serialized in DRAM, byte for
    /// byte what the durable layout holds once a checkpoint drains it.
    Dram(Vec<u8>),
}

impl Located {
    /// Release what locating took: a per-key mapping is unmapped.
    fn release(&self, clock: &Clock) {
        if let Located::Mapped {
            mapping,
            unmap_after_load: true,
            ..
        } = self
        {
            mapping.unmap(clock);
        }
    }

    /// A mapped record's mapping and `(offset, len, header length)` where
    /// an entry names the last: one [`load_split`] reads it.
    fn entry(&self) -> Option<(&DaxMapping, (usize, usize, usize))> {
        match *self {
            Located::Mapped {
                ref mapping,
                offset,
                len,
                header: Some(head),
                ..
            } => Some((mapping, (offset, len, head))),
            _ => None,
        }
    }

    /// Run `f` on a reader over the record, wherever it lives, window
    /// first: the way to a record whose header length nothing names.
    fn read<R>(
        &self,
        clock: &Clock,
        f: impl FnOnce(&mut dyn ReadSource) -> Result<R>,
    ) -> Result<R> {
        match self {
            Located::Mapped {
                mapping,
                offset,
                len,
                ..
            } => f(&mut MappingSource::new(mapping, clock, *offset, *len)?),
            Located::Dram(record) => f(&mut SliceSource::new(record)),
        }
    }
}

/// Supplies payload destinations during a batched load. A record whose
/// header length its entry names lands in its destination in the header's
/// own load, so the destination is asked for first, with `room`: the bytes
/// behind the header, the payload's bound. Once the header is decoded it
/// is cut to the payload, which the pipeline checks it holds exactly.
pub(crate) trait ReadConsumer {
    /// Destination for `keys[idx]`: a caller's buffer as it is, else a
    /// fresh allocation of the whole elements `room` bytes hold.
    fn dst(&mut self, idx: usize, room: u64) -> &mut [u8];

    /// `keys[idx]`'s destination cut to the whole elements of `payload_len`
    /// bytes; a caller's buffer, or a scalar's, is never cut.
    fn cut(&mut self, idx: usize, payload_len: u64) -> &mut [u8];
}

/// `keys[idx]`'s destination cut to its payload, which it must hold exactly.
fn fitted<'c>(
    key: &str,
    consumer: &'c mut dyn ReadConsumer,
    idx: usize,
    payload_len: u64,
) -> Result<&'c mut [u8]> {
    let dst = consumer.cut(idx, payload_len);
    if payload_len != dst.len() as u64 {
        return Err(PmemCpyError::ShapeMismatch {
            id: key.to_string(),
            detail: format!("payload {payload_len} bytes, buffer {} bytes", dst.len()),
        });
    }
    Ok(dst)
}

/// The window-first decode, whatever the record is read out of (a per-key
/// file, a front hit's DRAM bytes): header, the consumer's destination for
/// it, the length check, payload.
fn decode_into(
    serializer: &'static dyn Serializer,
    src: &mut dyn ReadSource,
    key: &str,
    idx: usize,
    consumer: &mut dyn ReadConsumer,
) -> Result<VarHeader> {
    let hdr = serializer.read_header(src)?;
    consumer.dst(idx, hdr.payload_len);
    serializer.read_payload(src, fitted(key, consumer, idx, hdr.payload_len)?)?;
    Ok(hdr)
}

/// The one-load decode of a record whose entry names its header length:
/// the destination sized from the bytes behind the header, one
/// [`load_split`] — header, payload straight into the destination, tail —
/// then the header's decode and the length checks.
fn load_entry(
    serializer: &'static dyn Serializer,
    clock: &Clock,
    (mapping, at @ (_, len, head)): (&DaxMapping, (usize, usize, usize)),
    (key, idx): (&str, usize),
    consumer: &mut dyn ReadConsumer,
) -> Result<VarHeader> {
    let room = len.saturating_sub(head) as u64;
    let dst = Some(consumer.dst(idx, room));
    let hdr = load_split(mapping, clock, at, dst, |src| serializer.read_header(src))?;
    if hdr.payload_len > room {
        let what = format!("a {}-byte payload past its record", hdr.payload_len);
        return Err(SerialError::Corrupt(what).into());
    }
    fitted(key, consumer, idx, hdr.payload_len)?;
    Ok(hdr)
}

/// Decode one located record into the caller's buffer — the per-record
/// stage of `load_many`. A mapped record streams straight from PMEM, in
/// one load where its entry names its header length, and is then charged
/// its deserialize; a front hit is a DRAM copy plus the serializer's CPU
/// pass, both in `get.front`.
fn load_one_located(
    serializer: &'static dyn Serializer,
    machine: &Machine,
    clock: &Clock,
    key: &str,
    loc: &Located,
    idx: usize,
    consumer: &mut dyn ReadConsumer,
) -> Result<VarHeader> {
    let front = matches!(loc, Located::Dram(_));
    let factor = serializer.cpu_cost_factor();
    let hdr = {
        let name = if front { "get.front" } else { "get.memcpy" };
        let mut span = machine.phase(clock, "get", name);
        let hdr = match loc.entry() {
            Some(at) => load_entry(serializer, clock, at, (key, idx), consumer)?,
            None => loc.read(clock, |src| {
                decode_into(serializer, src, key, idx, consumer)
            })?,
        };
        span.set_arg("bytes", hdr.payload_len);
        if front {
            machine.charge_dram_copy(clock, hdr.payload_len);
            machine.charge_serialize(clock, hdr.payload_len, factor);
            machine.metric_counter_add("wb.front_hits", 1);
            return Ok(hdr);
        }
        hdr
    };
    let _span = machine
        .phase(clock, "get", "get.deserialize")
        .arg("bytes", hdr.payload_len);
    machine.charge_serialize(clock, hdr.payload_len, factor);
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
    /// hierarchical layout maps each file, write-behind answers from its
    /// front index first. Errors with `NotFound` for the first missing key.
    /// Every read is derived from this one seam (`impl dyn Layout` below).
    fn locate_many(&self, clock: &Clock, keys: &[&str]) -> Result<Vec<Located>>;

    /// Whether `key` exists.
    fn exists(&self, clock: &Clock, key: &str) -> bool;

    /// Remove `key`; Ok(true) if it existed.
    fn remove(&self, clock: &Clock, key: &str) -> Result<bool>;

    /// Enumerate all keys (unspecified order).
    fn keys(&self, clock: &Clock) -> Vec<String>;

    /// Flush any write-behind state into durable layout storage (see
    /// [`crate::write_behind`]): drains WAL records and truncates the log.
    /// Inline layouts have nothing to flush. Returns the number of WAL
    /// records drained.
    fn checkpoint(&self, _clock: &Clock) -> Result<usize> {
        Ok(0)
    }
}

/// The reads every layout shares, each derived from
/// [`Layout::locate_many`]: one code path per read, whichever arm of
/// [`Located`] a key resolves to.
impl dyn Layout + '_ {
    /// Load a group of records in one pass per key: bulk-resolve every
    /// location, then for each record decode the header, obtain the
    /// destination from `consumer`, and stream the payload straight out of
    /// where it lives — the read-side mirror of [`Layout::store_many`], and
    /// the single code path behind [`crate::ReadBatch`]. Returns the decoded
    /// headers in key order.
    pub(crate) fn load_many(
        &self,
        clock: &Clock,
        keys: &[&str],
        consumer: &mut dyn ReadConsumer,
    ) -> Result<Vec<VarHeader>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let (serializer, machine) = (self.serializer(), self.machine());
        let located = {
            let _span = machine
                .phase(clock, "get", "get.lookup")
                .arg("keys", keys.len() as u64);
            self.locate_many(clock, keys)?
        };
        let mut out = Ok(Vec::with_capacity(located.len()));
        for (i, loc) in located.iter().enumerate() {
            if let Ok(hdrs) = &mut out {
                match load_one_located(serializer, machine, clock, keys[i], loc, i, consumer) {
                    Ok(hdr) => hdrs.push(hdr),
                    Err(e) => out = Err(e),
                }
            }
            // Every per-key mapping is released, even the ones after an
            // error that were located but never decoded.
            loc.release(clock);
        }
        out
    }

    /// Run `f` on where `key`'s record lives, then release it.
    fn with_located<R>(
        &self,
        clock: &Clock,
        key: &str,
        f: impl FnOnce(&Located) -> Result<R>,
    ) -> Result<R> {
        #[allow(
            clippy::expect_used,
            reason = "locate_many answers every key it is given"
        )]
        let loc = self
            .locate_many(clock, &[key])?
            .pop()
            .expect("locate_many returns one location per key");
        let result = f(&loc);
        loc.release(clock);
        result
    }

    /// Decode just the header of `key`'s record: exactly its bytes where
    /// an entry names its length, else a window of the record.
    pub(crate) fn stat(&self, clock: &Clock, key: &str) -> Result<VarHeader> {
        let serializer = self.serializer();
        self.with_located(clock, key, |loc| match loc.entry() {
            Some((mapping, at)) => Ok(load_split(mapping, clock, at, None, |src| {
                serializer.read_header(src)
            })?),
            None => loc.read(clock, |src| Ok(serializer.read_header(src)?)),
        })
    }

    /// Stream `key`'s raw serialized record (header + payload, exactly as
    /// stored) to `emit` in chunks of at most `chunk` bytes. Zero-copy from
    /// PMEM: each chunk is borrowed straight from the mapping — no DRAM
    /// staging buffer, same fault/read charges as a staged load; a front
    /// hit is one DRAM copy of its record. Returns the record length. Used
    /// by the burst-buffer drain, which flushes data "in the same format as
    /// it was produced" (§3) without staging records.
    pub(crate) fn stream_raw(
        &self,
        clock: &Clock,
        key: &str,
        chunk: usize,
        emit: &mut dyn FnMut(&[u8]) -> Result<()>,
    ) -> Result<u64> {
        let chunk = chunk.max(1);
        self.with_located(clock, key, |loc| match loc {
            Located::Mapped {
                mapping,
                offset,
                len,
                ..
            } => {
                let mut done = 0usize;
                while done < *len {
                    let n = (len - done).min(chunk);
                    mapping.load_borrowed(clock, offset + done, n, |bytes| emit(bytes))?;
                    done += n;
                }
                Ok(*len as u64)
            }
            Located::Dram(record) => {
                self.machine().charge_dram_copy(clock, record.len() as u64);
                record.chunks(chunk).try_for_each(&mut *emit)?;
                Ok(record.len() as u64)
            }
        })
    }

    /// Copy out `key`'s raw serialized record into one buffer (diagnostics
    /// and tests; the drain streams via `stream_raw` instead).
    pub(crate) fn raw_value(&self, clock: &Clock, key: &str) -> Result<Vec<u8>> {
        let mut out = Vec::new();
        self.stream_raw(clock, key, 1 << 18, &mut |chunk| {
            out.extend_from_slice(chunk);
            Ok(())
        })?;
        Ok(out)
    }
}
