//! Write-behind persistence: DRAM-speed puts over a persistent WAL.
//!
//! The decoupled design DStore/Blizzard use for PMEM: the inline put path
//! shrinks to (1) an upsert into a volatile DRAM *front index* and (2) one
//! fenced append of the whole commit group to a [`PersistentLog`]-backed
//! write-ahead log — durability is unchanged, every put is on PMEM before it
//! returns, but the transactional layout work leaves the critical path. A
//! *checkpoint* pass, charged to its own background lane
//! ([`pmem_sim::CKPT_LANE`]) so application clocks never pay for it, later
//! drains the log records into the regular [`Layout`] via `store_many` and
//! truncates the log under a crash-safe watermark (a single persisted head
//! advance — see [`PersistentLog::truncate_front`]).
//!
//! Crash protocol:
//! * A crash mid-append loses only the in-flight group (tail never moved).
//! * A crash mid-drain re-applies the same records on the next drain — the
//!   layout's puts are overwrite-idempotent, and the watermark only moves
//!   after every record is applied.
//! * Recovery on open replays log-over-last-checkpoint into the front index
//!   (later records win). The shadow index needs no special reconciliation:
//!   reads consult the front index *first*, so a stale or cold shadow entry
//!   can never mask a newer write-behind value.

use crate::error::{PmemCpyError, Result};
use crate::layout::{
    hashtable::HashtableLayout, Layout, Located, PutRequest, ReadConsumer, Reservation,
    ReserveRequest,
};
use crate::registry::SharedPool;
use pmdk_sim::{PersistentLog, PmdkError};
use pmem_sim::sync::Mutex;
use pmem_sim::{Clock, Machine, CKPT_LANE};
use pserial::io::{get_str, get_u32, get_u64, get_u8, put_str, put_u32, put_u64, put_u8};
use pserial::{Datatype, ReadSource, Serializer, SliceSource, VarHeader, VarMeta};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Reserved hashtable key holding the WAL's `(header, ring)` offsets: the
/// pool root is a fixed 8 bytes (the hashtable header), so the log roots
/// itself as an out-of-band metadata entry. The `\0` prefix keeps it out of
/// every key listing. Public so offline diagnostics (pmemcpy-doctor) can
/// find the WAL without mounting.
pub const WAL_KEY: &[u8] = b"\0wal";

struct FrontEntry {
    meta: VarMeta,
    payload: Arc<Vec<u8>>,
    /// WAL records still carrying this key: the entry must outlive them all,
    /// because until the last one is checkpointed the durable layout may
    /// hold an older value (or none).
    pending: usize,
}

/// Shared write-behind state, interned per device alongside the pool (see
/// [`crate::registry::write_behind_state`]): the ranks of a job share one
/// WAL and one front index, exactly as they share one pool.
pub struct WriteBehindState {
    log: PersistentLog,
    front: Mutex<HashMap<String, FrontEntry>>,
    /// Serializes checkpoint passes; concurrent triggers coalesce.
    ckpt_lock: Mutex<()>,
}

impl WriteBehindState {
    /// Open (or create) the WAL rooted in `shared`'s hashtable, then run
    /// recovery: replay every committed record into the front index. The
    /// records stay in the log — only a checkpoint truncates.
    pub(crate) fn attach(clock: &Clock, shared: &SharedPool, capacity: u64) -> Result<Arc<Self>> {
        let pool = &shared.pool;
        let log = match shared.hashtable.get(clock, WAL_KEY) {
            Some(loc) if loc.len() == 16 => {
                let header = u64::from_le_bytes(loc[0..8].try_into().unwrap());
                let ring = u64::from_le_bytes(loc[8..16].try_into().unwrap());
                PersistentLog::open(clock, pool, header, ring)?
            }
            Some(_) => {
                return Err(PmemCpyError::Pmdk(PmdkError::BadPool(
                    "malformed WAL location record".into(),
                )))
            }
            None => {
                let log = PersistentLog::create(clock, pool, capacity)?;
                let (header, ring) = log.location();
                let mut loc = [0u8; 16];
                loc[0..8].copy_from_slice(&header.to_le_bytes());
                loc[8..16].copy_from_slice(&ring.to_le_bytes());
                shared.hashtable.put(clock, WAL_KEY, &loc)?;
                log
            }
        };
        let mut front: HashMap<String, FrontEntry> = HashMap::new();
        let records = log.replay(clock)?;
        for rec in &records {
            // Crash-during-replay-on-open injection site: recovery itself
            // must be re-runnable (nothing above was mutated).
            pool.fail_check(clock, "wal::replay")?;
            for put in decode_group(rec)? {
                let entry = front.entry(put.key).or_insert_with(|| FrontEntry {
                    meta: put.meta.clone(),
                    payload: Arc::new(Vec::new()),
                    pending: 0,
                });
                entry.meta = put.meta;
                entry.payload = Arc::new(put.payload);
                entry.pending += 1;
            }
        }
        if !records.is_empty() {
            pool.flight().record(
                clock,
                pmem_sim::EventCode::WalReplay,
                0,
                records.len() as u64,
                0,
            );
        }
        Ok(Arc::new(WriteBehindState {
            log,
            front: Mutex::new(front),
            ckpt_lock: Mutex::new(()),
        }))
    }
}

/// One decoded WAL put.
struct DecodedPut {
    key: String,
    meta: VarMeta,
    payload: Vec<u8>,
}

/// Encode one commit group as a single WAL record:
/// `[nkeys u32]` then per key: key, meta (name/dtype/dims/offsets/
/// global_dims), payload length, raw payload bytes.
fn encode_group(puts: &[PutRequest<'_>]) -> Result<Vec<u8>> {
    let mut out: Vec<u8> = Vec::new();
    put_u32(&mut out, puts.len() as u32)?;
    for p in puts {
        put_str(&mut out, p.key)?;
        put_str(&mut out, &p.meta.name)?;
        put_u8(&mut out, p.meta.dtype.code())?;
        for dims in [&p.meta.dims, &p.meta.offsets, &p.meta.global_dims] {
            put_u32(&mut out, dims.len() as u32)?;
            for &d in dims.iter() {
                put_u64(&mut out, d)?;
            }
        }
        put_u64(&mut out, p.payload.len() as u64)?;
        out.extend_from_slice(p.payload);
    }
    Ok(out)
}

/// Decode a WAL record into `(key, payload bytes)` pairs — lets offline
/// diagnostics (pmemcpy-doctor) render pending records without mounting the
/// pool or holding the full payloads.
pub fn describe_group(record: &[u8]) -> Result<Vec<(String, u64)>> {
    Ok(decode_group(record)?
        .into_iter()
        .map(|p| (p.key, p.payload.len() as u64))
        .collect())
}

fn decode_group(record: &[u8]) -> Result<Vec<DecodedPut>> {
    let mut src = SliceSource::new(record);
    let nkeys = get_u32(&mut src)? as usize;
    let mut out = Vec::with_capacity(nkeys);
    for _ in 0..nkeys {
        let key = get_str(&mut src)?;
        let name = get_str(&mut src)?;
        let dtype = Datatype::from_code(get_u8(&mut src)?)
            .map_err(|e| PmemCpyError::Pmdk(PmdkError::BadPool(format!("WAL record: {e}"))))?;
        let mut fields: [Vec<u64>; 3] = Default::default();
        for field in fields.iter_mut() {
            let n = get_u32(&mut src)? as usize;
            *field = (0..n)
                .map(|_| get_u64(&mut src))
                .collect::<std::result::Result<Vec<u64>, _>>()?;
        }
        let [dims, offsets, global_dims] = fields;
        let plen = get_u64(&mut src)? as usize;
        let mut payload = vec![0u8; plen];
        src.get(&mut payload)?;
        out.push(DecodedPut {
            key,
            meta: VarMeta {
                name,
                dtype,
                dims,
                offsets,
                global_dims,
            },
            payload,
        });
    }
    Ok(out)
}

/// Re-serialize a front-index entry into the exact raw record the durable
/// layout would hold, so headers, stats and raw byte streams are
/// indistinguishable from inline mode.
fn raw_record_of(
    serializer: &'static dyn Serializer,
    meta: &VarMeta,
    payload: &[u8],
) -> Result<Vec<u8>> {
    let mut buf =
        Vec::with_capacity(serializer.serialized_len(meta, payload.len() as u64) as usize);
    serializer.write_var(meta, payload, &mut buf)?;
    Ok(buf)
}

/// The write-behind [`Layout`] wrapper: puts append to the WAL + front
/// index, reads consult the front index before the inner layout, and
/// everything else delegates.
pub struct WriteBehindLayout {
    inner: HashtableLayout,
    state: Arc<WriteBehindState>,
}

impl WriteBehindLayout {
    pub fn new(inner: HashtableLayout, state: Arc<WriteBehindState>) -> Self {
        WriteBehindLayout { inner, state }
    }

    fn front_snapshot(&self, key: &str) -> Option<(VarMeta, Arc<Vec<u8>>)> {
        self.state
            .front
            .lock()
            .get(key)
            .map(|e| (e.meta.clone(), Arc::clone(&e.payload)))
    }

    /// Drain every committed WAL record into the inner layout, truncate the
    /// log, and release fully-drained front entries. All work is charged to
    /// the checkpoint lane's clock, so no rank's virtual time moves.
    fn run_checkpoint(&self) -> Result<usize> {
        let machine = Arc::clone(self.inner.machine());
        // Appenders block on ckpt_lock when the ring fills; never let the
        // deterministic scheduler park us while holding it.
        let _atomic = pmem_sim::atomic_section();
        let _ckpt = self.state.ckpt_lock.lock();
        let ckpt_clock = Clock::with_lane(CKPT_LANE);
        let mut span = machine.phase(&ckpt_clock, "ckpt", "ckpt.drain");
        let records = self.state.log.replay(&ckpt_clock)?;
        if records.is_empty() {
            return Ok(0);
        }
        let pool = &self.inner.shared().pool;
        pool.flight().record(
            &ckpt_clock,
            pmem_sim::EventCode::CkptBegin,
            0,
            records.len() as u64,
            0,
        );
        let mut applied: HashMap<String, usize> = HashMap::new();
        for rec in &records {
            let group = decode_group(rec)?;
            self.apply_group(&ckpt_clock, &group)?;
            for put in &group {
                *applied.entry(put.key.clone()).or_default() += 1;
            }
            // Mid-drain crash site: some groups are applied (harmlessly —
            // they re-apply on the next drain), the watermark is unmoved.
            pool.fail_check(&ckpt_clock, "wal::ckpt-drain")?;
        }
        let drained = self.state.log.truncate_front(&ckpt_clock, records.len())?;
        pool.flight().record(
            &ckpt_clock,
            pmem_sim::EventCode::CkptEnd,
            0,
            drained as u64,
            0,
        );
        let mut front = self.state.front.lock();
        for (key, count) in applied {
            if let Some(entry) = front.get_mut(&key) {
                // Saturating: a record appended between our replay snapshot
                // and its front upsert may be counted here first; the entry
                // then simply lingers with the (correct) newest value.
                entry.pending = entry.pending.saturating_sub(count);
                if entry.pending == 0 {
                    front.remove(&key);
                }
            }
        }
        drop(front);
        machine.metric_counter_add("ckpt.drains", 1);
        span.set_arg("records", drained as u64);
        Ok(drained)
    }

    /// Apply one decoded group through the inner layout's bulk seam, in
    /// chunks that respect the group-commit size and never repeat a key
    /// within a chunk (a group may legally update the same key twice).
    fn apply_group(&self, clock: &Clock, group: &[DecodedPut]) -> Result<()> {
        let mut start = 0usize;
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for (i, put) in group.iter().enumerate() {
            if seen.contains(put.key.as_str()) || i - start == crate::batch::MAX_GROUP_KEYS {
                self.apply_chunk(clock, &group[start..i])?;
                seen.clear();
                start = i;
            }
            seen.insert(&put.key);
        }
        self.apply_chunk(clock, &group[start..])
    }

    fn apply_chunk(&self, clock: &Clock, chunk: &[DecodedPut]) -> Result<()> {
        if chunk.is_empty() {
            return Ok(());
        }
        let puts: Vec<PutRequest<'_>> = chunk
            .iter()
            .map(|p| PutRequest {
                key: &p.key,
                meta: &p.meta,
                payload: &p.payload,
            })
            .collect();
        self.inner.store_many(clock, &puts)
    }

    fn machine_ref(&self) -> &Arc<Machine> {
        self.inner.machine()
    }
}

impl Layout for WriteBehindLayout {
    fn serializer(&self) -> &'static dyn Serializer {
        self.inner.serializer()
    }

    fn machine(&self) -> &Arc<Machine> {
        self.inner.machine()
    }

    fn flush_strategy(&self) -> pmem_sim::FlushStrategy {
        self.inner.flush_strategy()
    }

    /// Only reachable through the overridden `store_many` during a
    /// checkpoint apply; delegate.
    fn reserve_many(&self, clock: &Clock, reqs: &[ReserveRequest<'_>]) -> Result<Vec<Reservation>> {
        self.inner.reserve_many(clock, reqs)
    }

    fn store_many(&self, clock: &Clock, puts: &[PutRequest<'_>]) -> Result<()> {
        if puts.is_empty() {
            return Ok(());
        }
        let machine = Arc::clone(self.machine_ref());
        let record = encode_group(puts)?;
        if record.len() as u64 + 8 > self.state.log.capacity() / 2 {
            // A group too large for the ring takes the inline path: still
            // durable, just not write-behind for this one group. Earlier
            // not-yet-checkpointed records for these keys must not outlive
            // the inline write — a later drain would replay them over the
            // newer data (and recovery would rebuild the stale front) — so
            // empty the log and the front index first. Eviction is
            // unconditional: a lingering entry (inflated pending, see
            // `run_checkpoint`) would survive the drain and mask the new
            // inline data on front-first reads.
            self.run_checkpoint()?;
            {
                let mut front = self.state.front.lock();
                for p in puts {
                    front.remove(p.key);
                }
            }
            machine.metric_counter_add("wal.bypass", 1);
            return self.inner.store_many(clock, puts);
        }
        {
            let _span = machine
                .phase(clock, "put", "wal.append")
                .arg("bytes", record.len() as u64);
            match self.state.log.append(clock, &record) {
                Err(PmdkError::OutOfMemory { .. }) => {
                    // Ring full: drain on the checkpoint lane, retry once.
                    self.run_checkpoint()?;
                    self.state.log.append(clock, &record)
                }
                other => other,
            }?;
        }
        machine.metric_counter_add("wal.appends", 1);
        {
            let mut front = self.state.front.lock();
            for p in puts {
                let pending = front.get(p.key).map_or(0, |e| e.pending) + 1;
                let entry = FrontEntry {
                    meta: p.meta.clone(),
                    payload: Arc::new(p.payload.to_vec()),
                    pending,
                };
                front.insert(p.key.to_string(), entry);
            }
        }
        // Drain opportunistically at half-full so appends rarely stall on a
        // synchronous full-ring drain.
        if self.state.log.used(clock)? * 2 >= self.state.log.capacity() {
            self.run_checkpoint()?;
        }
        Ok(())
    }

    /// Unreachable through this layout: `load_many`, `stat` and
    /// `stream_raw`, the default methods that call it, are all overridden
    /// to read front-first. Delegate.
    fn locate_many(&self, clock: &Clock, keys: &[&str]) -> Result<Vec<Located>> {
        self.inner.locate_many(clock, keys)
    }

    fn load_many(
        &self,
        clock: &Clock,
        keys: &[&str],
        consumer: &mut dyn ReadConsumer,
    ) -> Result<Vec<VarHeader>> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        // Partition under one lock acquisition; payloads are Arc-shared so
        // the copies below run unlocked.
        let hits: Vec<Option<(VarMeta, Arc<Vec<u8>>)>> = {
            let front = self.state.front.lock();
            keys.iter()
                .map(|k| {
                    front
                        .get(*k)
                        .map(|e| (e.meta.clone(), Arc::clone(&e.payload)))
                })
                .collect()
        };
        let mut miss_keys: Vec<&str> = Vec::new();
        let mut miss_idx: Vec<usize> = Vec::new();
        for (i, hit) in hits.iter().enumerate() {
            if hit.is_none() {
                miss_keys.push(keys[i]);
                miss_idx.push(i);
            }
        }
        struct Remap<'a> {
            idx: &'a [usize],
            consumer: &'a mut dyn ReadConsumer,
        }
        impl ReadConsumer for Remap<'_> {
            fn dst(&mut self, idx: usize, hdr: &VarHeader) -> Result<&mut [u8]> {
                self.consumer.dst(self.idx[idx], hdr)
            }
        }
        let miss_hdrs = if miss_keys.is_empty() {
            Vec::new()
        } else {
            self.inner.load_many(
                clock,
                &miss_keys,
                &mut Remap {
                    idx: &miss_idx,
                    consumer,
                },
            )?
        };
        let machine = Arc::clone(self.machine_ref());
        let serializer = self.inner.serializer();
        let mut out: Vec<Option<VarHeader>> = (0..keys.len()).map(|_| None).collect();
        for (&i, hdr) in miss_idx.iter().zip(miss_hdrs) {
            out[i] = Some(hdr);
        }
        for (i, hit) in hits.into_iter().enumerate() {
            let Some((meta, payload)) = hit else { continue };
            let hdr = {
                let _span = machine
                    .phase(clock, "get", "get.front")
                    .arg("bytes", payload.len() as u64);
                // Decode through the serializer's own record format so the
                // header (and any payload transform) is byte-equivalent to
                // an inline-mode read.
                let raw = raw_record_of(serializer, &meta, &payload)?;
                let mut src = SliceSource::new(&raw);
                let hdr = serializer.read_header(&mut src)?;
                let dst = consumer.dst(i, &hdr)?;
                if hdr.payload_len != dst.len() as u64 {
                    return Err(PmemCpyError::ShapeMismatch {
                        id: keys[i].to_string(),
                        detail: format!(
                            "payload {} bytes, buffer {} bytes",
                            hdr.payload_len,
                            dst.len()
                        ),
                    });
                }
                serializer.read_payload(&mut src, dst)?;
                machine.charge_dram_copy(clock, payload.len() as u64);
                machine.charge_serialize(clock, payload.len() as u64, serializer.cpu_cost_factor());
                machine.metric_counter_add("wb.front_hits", 1);
                hdr
            };
            out[i] = Some(hdr);
        }
        Ok(out
            .into_iter()
            .map(|h| h.expect("every key resolved by front or inner"))
            .collect())
    }

    fn stat(&self, clock: &Clock, key: &str) -> Result<VarHeader> {
        match self.front_snapshot(key) {
            Some((meta, payload)) => {
                let serializer = self.inner.serializer();
                let raw = raw_record_of(serializer, &meta, &payload)?;
                Ok(serializer.read_header(&mut SliceSource::new(&raw))?)
            }
            None => self.inner.stat(clock, key),
        }
    }

    fn exists(&self, clock: &Clock, key: &str) -> bool {
        self.state.front.lock().contains_key(key) || self.inner.exists(clock, key)
    }

    /// Removal must not resurrect on recovery: drain the WAL first, then
    /// remove from the durable layout. The front eviction is unconditional
    /// because a lingering entry (pending inflated by the append/drain
    /// interleaving, see `run_checkpoint`) survives the drain and would
    /// otherwise keep serving the deleted value.
    fn remove(&self, clock: &Clock, key: &str) -> Result<bool> {
        self.run_checkpoint()?;
        self.state.front.lock().remove(key);
        self.inner.remove(clock, key)
    }

    fn keys(&self, clock: &Clock) -> Vec<String> {
        let mut all: BTreeSet<String> = self.inner.keys(clock).into_iter().collect();
        all.extend(self.state.front.lock().keys().cloned());
        all.into_iter().collect()
    }

    fn stream_raw(
        &self,
        clock: &Clock,
        key: &str,
        chunk: usize,
        emit: &mut dyn FnMut(&[u8]) -> Result<()>,
    ) -> Result<u64> {
        match self.front_snapshot(key) {
            Some((meta, payload)) => {
                let machine = self.machine_ref();
                let raw = raw_record_of(self.inner.serializer(), &meta, &payload)?;
                machine.charge_dram_copy(clock, raw.len() as u64);
                for piece in raw.chunks(chunk.max(1)) {
                    emit(piece)?;
                }
                Ok(raw.len() as u64)
            }
            None => self.inner.stream_raw(clock, key, chunk, emit),
        }
    }

    fn checkpoint(&self, _clock: &Clock) -> Result<usize> {
        self.run_checkpoint()
    }

    fn quiesce(&self, clock: &Clock) -> Result<()> {
        self.inner.quiesce(clock)
    }

    fn name(&self) -> &'static str {
        "write-behind(pmdk-hashtable)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_codec_round_trips() {
        let meta_a = VarMeta::scalar("a", Datatype::U64);
        let meta_b = VarMeta::block("b", Datatype::F64, &[8, 8], &[4, 0], &[4, 8]);
        let pa = 7u64.to_le_bytes().to_vec();
        let pb: Vec<u8> = (0..32u16).flat_map(|i| (i as f64).to_le_bytes()).collect();
        let puts = [
            PutRequest {
                key: "a",
                meta: &meta_a,
                payload: &pa,
            },
            PutRequest {
                key: "b#block@4,0",
                meta: &meta_b,
                payload: &pb,
            },
        ];
        let rec = encode_group(&puts).unwrap();
        let back = decode_group(&rec).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].key, "a");
        assert_eq!(back[0].meta, meta_a);
        assert_eq!(back[0].payload, pa);
        assert_eq!(back[1].key, "b#block@4,0");
        assert_eq!(back[1].meta, meta_b);
        assert_eq!(back[1].payload, pb);
    }

    /// Builds a write-behind layout over a fresh device (unit-level twin of
    /// the `api::mmap` wiring, so tests can reach the private front index).
    fn test_layout() -> (Arc<pmem_sim::PmemDevice>, WriteBehindLayout) {
        let machine = pmem_sim::Machine::chameleon();
        let dev = pmem_sim::PmemDevice::new(machine, 8 << 20, pmem_sim::PersistenceMode::Fast);
        let clock = Clock::new();
        let shared = crate::registry::shared_pool(&clock, &dev, "pmemcpy", 4096).unwrap();
        let state = WriteBehindState::attach(&clock, &shared, 1 << 20).unwrap();
        let serializer = pserial::by_name("bp4").unwrap();
        let inner = HashtableLayout::new(
            &clock,
            &dev,
            shared,
            serializer,
            false,
            pmem_sim::FlushStrategy::Clwb,
        );
        (dev, WriteBehindLayout::new(inner, state))
    }

    /// The append/drain interleaving can leave a front entry with an
    /// inflated pending count that no drain ever releases ("lingering").
    /// `remove` must evict it unconditionally or the key resurrects.
    #[test]
    fn remove_evicts_lingering_front_entries() {
        let (dev, layout) = test_layout();
        let clock = Clock::new();
        let meta = VarMeta::scalar("k", Datatype::U64);
        let payload = 7u64.to_le_bytes();
        layout
            .store_many(
                &clock,
                &[PutRequest {
                    key: "k",
                    meta: &meta,
                    payload: &payload,
                }],
            )
            .unwrap();
        // Simulate the interleaving: a drain counted the record before the
        // appender's front upsert, so the upsert's +1 is never released.
        layout.state.front.lock().get_mut("k").unwrap().pending += 1;
        layout.checkpoint(&clock).unwrap();
        assert!(
            layout.state.front.lock().contains_key("k"),
            "setup: the entry must linger past the drain"
        );
        assert!(layout.remove(&clock, "k").unwrap());
        assert!(
            !layout.exists(&clock, "k"),
            "removed key resurrected from a lingering front entry"
        );
        assert!(!layout.state.front.lock().contains_key("k"));
        crate::registry::release_pool(&dev);
    }

    /// A lingering entry must also not mask an oversized-group bypass
    /// write: the bypass path evicts the group's keys from the front.
    #[test]
    fn bypass_evicts_lingering_front_entries() {
        let (dev, layout) = test_layout();
        let clock = Clock::new();
        let meta = VarMeta::scalar("k", Datatype::U64);
        let old = 1u64.to_le_bytes();
        layout
            .store_many(
                &clock,
                &[PutRequest {
                    key: "k",
                    meta: &meta,
                    payload: &old,
                }],
            )
            .unwrap();
        layout.state.front.lock().get_mut("k").unwrap().pending += 1;
        // An oversized group updating the same key: > capacity/2 forces the
        // inline bypass.
        let big_meta = VarMeta::local_array("k", Datatype::U8, &[600 * 1024]);
        let big = vec![0xabu8; 600 * 1024];
        layout
            .store_many(
                &clock,
                &[PutRequest {
                    key: "k",
                    meta: &big_meta,
                    payload: &big,
                }],
            )
            .unwrap();
        let mut dst = vec![0u8; big.len()];
        let hdr = layout.load_into(&clock, "k", &mut dst).unwrap();
        assert_eq!(hdr.meta.dims, vec![600 * 1024]);
        assert_eq!(dst, big, "stale lingering entry masked the bypass write");
        crate::registry::release_pool(&dev);
    }

    #[test]
    fn truncated_record_is_an_error_not_a_panic() {
        let meta = VarMeta::scalar("x", Datatype::U32);
        let payload = 5u32.to_le_bytes();
        let rec = encode_group(&[PutRequest {
            key: "x",
            meta: &meta,
            payload: &payload,
        }])
        .unwrap();
        for cut in [1, rec.len() / 2, rec.len() - 1] {
            assert!(decode_group(&rec[..cut]).is_err(), "cut at {cut}");
        }
    }
}
