//! Write-behind persistence: DRAM-speed puts over a persistent WAL.
//!
//! The decoupled design DStore/Blizzard use for PMEM: the inline put path
//! shrinks to one fenced append of the whole commit group to a
//! [`PersistentLog`]-backed write-ahead log plus an upsert into a volatile
//! DRAM *front index* — durability is unchanged, every put is on PMEM before
//! it returns, but the transactional layout work leaves the critical path. A
//! *checkpoint* pass, charged to its own background lane
//! ([`pmem_sim::CKPT_LANE`]) so application clocks never pay for it, later
//! drains the log records into the regular [`Layout`] via `store_many` and
//! truncates the log under a crash-safe watermark (a single persisted head
//! advance — see [`PersistentLog::truncate_front`]).
//!
//! **The invariant.** The front index is exactly the latest-wins fold, in
//! replay order, of the records currently in the WAL ring. One lock
//! ([`WriteBehindState`]'s) makes that true by construction: a put holds it
//! across the append and the upsert, a checkpoint holds it across replay →
//! apply → truncate and ends by clearing the index, and recovery rebuilds
//! the same fold from the ring. Everything the ring does not hold is in the
//! durable layout, so a read that looks in the front index first can never
//! see a value older than the durable one, and no entry outlives its
//! records.
//!
//! Crash protocol:
//! * A crash mid-append loses only the in-flight group (tail never moved).
//! * A crash mid-drain re-applies the same records on the next drain — the
//!   layout's puts are overwrite-idempotent, and the watermark only moves
//!   after every record has landed.
//! * Recovery on open replays log-over-last-checkpoint into the front index
//!   (later records win). The shadow index needs no special reconciliation:
//!   reads consult the front index *first*, so a stale or cold shadow entry
//!   can never mask a newer write-behind value.

use crate::error::{PmemCpyError, Result};
use crate::layout::{
    decode_into, hashtable::HashtableLayout, Layout, Located, PutRequest, ReadConsumer,
    Reservation, ReserveRequest,
};
use crate::registry::SharedPool;
use pmdk_sim::{PersistentLog, PmdkError};
use pmem_sim::sync::Mutex;
use pmem_sim::{Clock, EventCode, Machine, CKPT_LANE};
use pserial::io::{get_str, get_u32, get_u64, get_u8, put_str, put_u32, put_u64, put_u8};
use pserial::{Datatype, ReadSource, SerialError, Serializer, SliceSource, VarHeader, VarMeta};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Reserved hashtable key holding the WAL's `(header, ring)` offsets: the
/// pool root is a fixed 8 bytes (the hashtable header), so the log roots
/// itself as an out-of-band metadata entry. The `\0` prefix keeps it out of
/// every key listing. Public so offline diagnostics (pmemcpy-doctor) can
/// find the WAL without mounting.
pub const WAL_KEY: &[u8] = b"\0wal";

/// The newest un-checkpointed value of one key.
#[derive(Clone)]
struct FrontEntry {
    meta: VarMeta,
    payload: Arc<Vec<u8>>,
}

type Front = HashMap<String, FrontEntry>;

fn upsert(front: &mut Front, key: &str, meta: &VarMeta, payload: &[u8]) {
    let entry = FrontEntry {
        meta: meta.clone(),
        payload: Arc::new(payload.to_vec()),
    };
    front.insert(key.to_string(), entry);
}

/// Shared write-behind state, carried by the interned pool (see
/// [`SharedPool::write_behind`]): the ranks of a job share one WAL and one
/// front index, exactly as they share one pool.
pub struct WriteBehindState {
    log: PersistentLog,
    /// The front index, and the one write-behind lock: whoever appends to or
    /// truncates `log` holds it across the ring operation *and* the matching
    /// index update, always inside an atomic section (ring operations charge
    /// the clock). A reader that finds a drain in progress waits on the host
    /// and is billed nothing.
    front: Mutex<Front>,
}

impl WriteBehindState {
    /// Open (or create) the WAL rooted in `shared`'s hashtable, then run
    /// recovery: fold every committed record into the front index. The
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
                let loc = [header.to_le_bytes(), ring.to_le_bytes()].concat();
                shared.hashtable.put(clock, WAL_KEY, &loc)?;
                log
            }
        };
        let mut front = Front::new();
        let records = log.replay(clock)?;
        for rec in &records {
            // Crash-during-replay-on-open injection site: recovery itself
            // must be re-runnable (nothing above was mutated).
            pool.fail_check(clock, "wal::replay")?;
            for put in decode_group(rec)? {
                upsert(&mut front, put.key, &put.meta, put.payload);
            }
        }
        if !records.is_empty() {
            let n = records.len() as u64;
            pool.flight().record(clock, EventCode::WalReplay, 0, n, 0);
        }
        Ok(Arc::new(WriteBehindState {
            log,
            front: Mutex::new(front),
        }))
    }
}

/// One decoded WAL put; key and payload borrow from the record.
struct DecodedPut<'a> {
    key: &'a str,
    meta: VarMeta,
    payload: &'a [u8],
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
/// diagnostics (pmemcpy-doctor) render un-checkpointed records without
/// mounting the pool or holding the full payloads.
pub fn describe_group(record: &[u8]) -> Result<Vec<(String, u64)>> {
    Ok(decode_group(record)?
        .into_iter()
        .map(|p| (p.key.to_string(), p.payload.len() as u64))
        .collect())
}

fn decode_group(record: &[u8]) -> Result<Vec<DecodedPut<'_>>> {
    let mut src = SliceSource::new(record);
    // The next `len` bytes, borrowed from the record instead of copied out.
    let take = |src: &mut SliceSource<'_>, len: u64| {
        if len > src.remaining() as u64 {
            return Err(SerialError::Corrupt(format!("WAL record: {len}-byte run")));
        }
        let at = src.position() as usize;
        src.skip(len)?;
        Ok(&record[at..at + len as usize])
    };
    let nkeys = get_u32(&mut src)? as usize;
    let mut out = Vec::with_capacity(nkeys.min(crate::batch::MAX_GROUP_KEYS));
    for _ in 0..nkeys {
        let klen = get_u32(&mut src)? as u64;
        let key = std::str::from_utf8(take(&mut src, klen)?)
            .map_err(|e| SerialError::Corrupt(format!("WAL record: bad utf8 key: {e}")))?;
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
        let plen = get_u64(&mut src)?;
        let payload = take(&mut src, plen)?;
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
fn raw_record_of(serializer: &'static dyn Serializer, entry: &FrontEntry) -> Result<Vec<u8>> {
    let len = serializer.serialized_len(&entry.meta, entry.payload.len() as u64);
    let mut buf = Vec::with_capacity(len as usize);
    serializer.write_var(&entry.meta, &entry.payload, &mut buf)?;
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

    /// What the front index holds for `key` right now; the payload is
    /// `Arc`-shared, so the caller works on it unlocked.
    fn front_snapshot(&self, key: &str) -> Option<FrontEntry> {
        self.state.front.lock().get(key).cloned()
    }

    /// Apply every committed WAL record to the inner layout — one record is
    /// one commit group is one `store_many` — then truncate the log and, the
    /// ring now holding nothing, clear the front index. The caller holds the
    /// lock `front` came from, inside an atomic section. All work is charged
    /// to the checkpoint lane's clock, so no rank's virtual time moves. On an
    /// error the watermark has not moved and the index is left as it was.
    fn drain(&self, front: &mut Front) -> Result<usize> {
        let machine = self.inner.machine();
        let ckpt_clock = Clock::with_lane(CKPT_LANE);
        let mut span = machine.phase(&ckpt_clock, "ckpt", "ckpt.drain");
        let records = self.state.log.replay(&ckpt_clock)?;
        if records.is_empty() {
            debug_assert!(front.is_empty(), "front entries without WAL records");
            return Ok(0);
        }
        let pool = &self.inner.shared().pool;
        let flight = |code, n: usize| pool.flight().record(&ckpt_clock, code, 0, n as u64, 0);
        flight(EventCode::CkptBegin, records.len());
        for rec in &records {
            let group = decode_group(rec)?;
            let puts: Vec<PutRequest<'_>> = group
                .iter()
                .map(|p| PutRequest {
                    key: p.key,
                    meta: &p.meta,
                    payload: p.payload,
                })
                .collect();
            self.inner.store_many(&ckpt_clock, &puts)?;
            // Mid-drain crash site: some groups have landed (harmlessly —
            // they re-apply on the next drain), the watermark is unmoved.
            pool.fail_check(&ckpt_clock, "wal::ckpt-drain")?;
        }
        let drained = self.state.log.truncate_front(&ckpt_clock, records.len())?;
        flight(EventCode::CkptEnd, drained);
        front.clear();
        machine.metric_counter_add("ckpt.drains", 1);
        span.set_arg("records", drained as u64);
        Ok(drained)
    }

    /// Serve one read from its front-index entry, through the serializer's
    /// own record format so the header (and any payload transform) is
    /// byte-equivalent to an inline-mode read.
    fn load_front(
        &self,
        clock: &Clock,
        key: &str,
        idx: usize,
        entry: &FrontEntry,
        consumer: &mut dyn ReadConsumer,
    ) -> Result<VarHeader> {
        let (machine, serializer) = (self.inner.machine(), self.inner.serializer());
        let bytes = entry.payload.len() as u64;
        let _span = machine.phase(clock, "get", "get.front").arg("bytes", bytes);
        let raw = raw_record_of(serializer, entry)?;
        let hdr = decode_into(serializer, &mut SliceSource::new(&raw), key, idx, consumer)?;
        machine.charge_dram_copy(clock, bytes);
        machine.charge_serialize(clock, bytes, serializer.cpu_cost_factor());
        machine.metric_counter_add("wb.front_hits", 1);
        Ok(hdr)
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

    /// Unreachable through this layout (`store_many` is overridden and a
    /// drain goes to the inner layout directly); delegate.
    fn reserve_many(&self, clock: &Clock, reqs: &[ReserveRequest<'_>]) -> Result<Vec<Reservation>> {
        self.inner.reserve_many(clock, reqs)
    }

    fn store_many(&self, clock: &Clock, puts: &[PutRequest<'_>]) -> Result<()> {
        if puts.is_empty() {
            return Ok(());
        }
        let (machine, log) = (self.inner.machine(), &self.state.log);
        let record = encode_group(puts)?;
        if record.len() as u64 + 8 > log.capacity() / 2 {
            // A group too large for the ring takes the inline path: still
            // durable, just not write-behind for this one group. Earlier
            // not-yet-checkpointed records for these keys must not outlive
            // the inline write — a later drain would replay them over the
            // newer data, and until then the front index would mask it — so
            // empty the log, and with it the front index, first.
            self.checkpoint(clock)?;
            machine.metric_counter_add("wal.bypass", 1);
            return self.inner.store_many(clock, puts);
        }
        {
            let _span = machine
                .phase(clock, "put", "wal.append")
                .arg("bytes", record.len() as u64);
            let _atomic = pmem_sim::atomic_section();
            let mut front = self.state.front.lock();
            match log.append(clock, &record) {
                Err(PmdkError::OutOfMemory { .. }) => {
                    // Ring full: drain on the checkpoint lane, retry once.
                    self.drain(&mut front)?;
                    log.append(clock, &record)
                }
                other => other,
            }?;
            for p in puts {
                upsert(&mut front, p.key, p.meta, p.payload);
            }
        }
        machine.metric_counter_add("wal.appends", 1);
        // Drain opportunistically at half-full so appends rarely stall on a
        // synchronous full-ring drain.
        if log.used(clock)? * 2 >= log.capacity() {
            self.checkpoint(clock)?;
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
        // Partition under one lock acquisition; payloads are Arc-shared so
        // the copies below run unlocked.
        let hits: Vec<Option<FrontEntry>> = {
            let front = self.state.front.lock();
            keys.iter().map(|k| front.get(*k).cloned()).collect()
        };
        let miss_idx: Vec<usize> = (0..keys.len()).filter(|&i| hits[i].is_none()).collect();
        let miss_keys: Vec<&str> = miss_idx.iter().map(|&i| keys[i]).collect();
        struct Remap<'a> {
            idx: &'a [usize],
            consumer: &'a mut dyn ReadConsumer,
        }
        impl ReadConsumer for Remap<'_> {
            fn dst(&mut self, idx: usize, hdr: &VarHeader) -> Result<&mut [u8]> {
                self.consumer.dst(self.idx[idx], hdr)
            }
        }
        // The misses first, as one group lookup; then the hits, in key order.
        let mut remap = Remap {
            idx: &miss_idx,
            consumer,
        };
        let mut miss_hdrs = self
            .inner
            .load_many(clock, &miss_keys, &mut remap)?
            .into_iter();
        let consumer = remap.consumer;
        (hits.iter().zip(keys).enumerate())
            .map(|(i, (hit, key))| match hit {
                Some(entry) => self.load_front(clock, key, i, entry, consumer),
                None => Ok(miss_hdrs.next().expect("one header per missed key")),
            })
            .collect()
    }

    fn stat(&self, clock: &Clock, key: &str) -> Result<VarHeader> {
        match self.front_snapshot(key) {
            Some(entry) => {
                let serializer = self.inner.serializer();
                let raw = raw_record_of(serializer, &entry)?;
                Ok(serializer.read_header(&mut SliceSource::new(&raw))?)
            }
            None => self.inner.stat(clock, key),
        }
    }

    fn exists(&self, clock: &Clock, key: &str) -> bool {
        // Released before the inner lookup, which may hand the token over.
        let in_front = self.state.front.lock().contains_key(key);
        in_front || self.inner.exists(clock, key)
    }

    /// Removal must not resurrect on recovery: drain the WAL — which empties
    /// the front index — then remove from the durable layout.
    fn remove(&self, clock: &Clock, key: &str) -> Result<bool> {
        self.checkpoint(clock)?;
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
            Some(entry) => {
                let raw = raw_record_of(self.inner.serializer(), &entry)?;
                self.inner
                    .machine()
                    .charge_dram_copy(clock, raw.len() as u64);
                for piece in raw.chunks(chunk.max(1)) {
                    emit(piece)?;
                }
                Ok(raw.len() as u64)
            }
            None => self.inner.stream_raw(clock, key, chunk, emit),
        }
    }

    fn checkpoint(&self, _clock: &Clock) -> Result<usize> {
        // The drain charges (the checkpoint lane's clock) under the lock;
        // never let the deterministic scheduler park us while holding it.
        let _atomic = pmem_sim::atomic_section();
        self.drain(&mut self.state.front.lock())
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
    use crate::registry::{release_pool, shared_pool};
    use pmem_sim::{MetricsRegistry, PersistenceMode, PmemDevice};

    fn put<'a>(key: &'a str, meta: &'a VarMeta, payload: &'a [u8]) -> PutRequest<'a> {
        PutRequest { key, meta, payload }
    }

    #[test]
    fn group_codec_round_trips() {
        let meta_a = VarMeta::scalar("a", Datatype::U64);
        let meta_b = VarMeta::block("b", Datatype::F64, &[8, 8], &[4, 0], &[4, 8]);
        let pa = 7u64.to_le_bytes().to_vec();
        let pb: Vec<u8> = (0..32u16).flat_map(|i| (i as f64).to_le_bytes()).collect();
        let puts = [put("a", &meta_a, &pa), put("b#block@4,0", &meta_b, &pb)];
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

    #[test]
    fn truncated_record_is_an_error_not_a_panic() {
        let meta = VarMeta::scalar("x", Datatype::U32);
        let payload = 5u32.to_le_bytes();
        let rec = encode_group(&[put("x", &meta, &payload)]).unwrap();
        for cut in [1, rec.len() / 2, rec.len() - 1] {
            assert!(decode_group(&rec[..cut]).is_err(), "cut at {cut}");
        }
    }

    const WAL: u64 = 4096;

    /// Mount a write-behind layout over `dev` (unit-level twin of the
    /// `api::mmap` wiring, so tests can reach the private front index); on a
    /// device that already holds a pool this runs recovery.
    fn mount(dev: &Arc<PmemDevice>) -> WriteBehindLayout {
        let clock = Clock::new();
        let shared = shared_pool(&clock, dev, "pmemcpy", 4096).unwrap();
        let state = shared.write_behind(&clock, WAL).unwrap();
        let serializer = pserial::by_name("bp4").unwrap();
        let strategy = pmem_sim::FlushStrategy::Clwb;
        let inner = HashtableLayout::new(&clock, dev, shared, serializer, false, strategy);
        WriteBehindLayout::new(inner, state)
    }

    /// Store `key` = `len` bytes of `fill` as one commit group.
    fn store(layout: &WriteBehindLayout, key: &str, fill: u8, len: usize) {
        let meta = VarMeta::local_array(key, Datatype::U8, &[len as u64]);
        let payload = vec![fill; len];
        let group = [put(key, &meta, &payload)];
        layout.store_many(&Clock::new(), &group).unwrap();
    }

    fn load(layout: &WriteBehindLayout, key: &str, len: usize) -> Vec<u8> {
        let mut dst = vec![0u8; len];
        layout.load_into(&Clock::new(), key, &mut dst).unwrap();
        dst
    }

    /// The one invariant: the front index equals the latest-wins fold, in
    /// replay order, of the records in the ring. Returns how many keys that
    /// is.
    fn assert_front_is_fold(layout: &WriteBehindLayout, context: &str) -> usize {
        let front = layout.state.front.lock();
        let mut fold: HashMap<String, (VarMeta, Vec<u8>)> = HashMap::new();
        for rec in layout.state.log.replay(&Clock::new()).unwrap() {
            for p in decode_group(&rec).unwrap() {
                fold.insert(p.key.to_string(), (p.meta, p.payload.to_vec()));
            }
        }
        let held: HashMap<String, (VarMeta, Vec<u8>)> = front
            .iter()
            .map(|(k, e)| (k.clone(), (e.meta.clone(), e.payload.to_vec())))
            .collect();
        assert_eq!(
            held, fold,
            "{context}: front index is not the fold of the ring"
        );
        held.len()
    }

    #[test]
    fn front_is_the_fold_of_the_ring() {
        let machine = Machine::chameleon();
        let metrics = MetricsRegistry::new();
        assert!(machine.set_metrics(Arc::clone(&metrics)));
        let drains = || metrics.snapshot().counter("ckpt.drains");
        let dev = PmemDevice::new(machine, 8 << 20, PersistenceMode::Tracked);
        let layout = mount(&dev);
        let clock = Clock::new();

        // Puts and an overwrite: three records, two keys, the later value wins.
        store(&layout, "a", 1, 16);
        store(&layout, "b", 2, 16);
        store(&layout, "a", 3, 24);
        assert_eq!(assert_front_is_fold(&layout, "after puts"), 2);
        assert_eq!(load(&layout, "a", 24), vec![3; 24]);

        // A checkpoint empties ring and index together; reads now come from
        // the durable layout.
        assert_eq!(layout.checkpoint(&clock).unwrap(), 3);
        assert_eq!(assert_front_is_fold(&layout, "after checkpoint"), 0);
        assert_eq!(load(&layout, "a", 24), vec![3; 24]);
        assert_eq!(layout.checkpoint(&clock).unwrap(), 0, "nothing left");

        // Ring-full retry. Head and tail sit a few hundred bytes into the
        // 4 KiB ring. A record occupying 2 000 bytes stays under the
        // half-full trigger; the next, occupying 2 040, neither fits before
        // the ring's end nor, wrapped, below the head: the put drains through
        // the guard it holds and retries, and the wrapped ring is then past
        // half full, so the opportunistic drain follows.
        let room = |occupies: usize| {
            let meta = VarMeta::local_array("c", Datatype::U8, &[0]);
            occupies - 8 - encode_group(&[put("c", &meta, &[])]).unwrap().len()
        };
        store(&layout, "c", 4, room(2000));
        assert_eq!(assert_front_is_fold(&layout, "before the full ring"), 1);
        let before = drains();
        store(&layout, "a", 5, room(2040));
        assert_eq!(
            drains() - before,
            2,
            "ring-full drain, then half-full drain"
        );
        assert_eq!(assert_front_is_fold(&layout, "after the retry"), 0);
        assert_eq!(load(&layout, "c", room(2000)), vec![4; room(2000)]);
        assert_eq!(load(&layout, "a", room(2040)), vec![5; room(2040)]);

        // A failed drain moves neither the watermark nor the index.
        store(&layout, "b", 6, 32);
        store(&layout, "d", 7, 32);
        store(&layout, "b", 8, 40);
        let pool = Arc::clone(&layout.inner.shared().pool);
        pool.fail_points.arm("wal::ckpt-drain", 2);
        assert!(layout.checkpoint(&clock).is_err());
        assert_eq!(assert_front_is_fold(&layout, "after a failed drain"), 2);

        // Power cut and re-attach: recovery rebuilds the same fold.
        dev.crash();
        drop((layout, pool));
        release_pool(&dev);
        let layout = mount(&dev);
        assert_eq!(assert_front_is_fold(&layout, "after recovery"), 2);
        assert_eq!(load(&layout, "b", 40), vec![8; 40]);
        assert_eq!(load(&layout, "d", 32), vec![7; 32]);
        assert_eq!(layout.checkpoint(&clock).unwrap(), 3);
        assert_eq!(assert_front_is_fold(&layout, "after the last drain"), 0);
        assert_eq!(load(&layout, "b", 40), vec![8; 40]);
        assert_eq!(load(&layout, "a", room(2040)), vec![5; room(2040)]);
        release_pool(&dev);
    }

    /// Eight real threads put, overwrite, load and checkpoint against one
    /// small ring. A rank is the only writer of its keys, so each key's last
    /// written value is known at every moment, whichever rank's drain moved
    /// it from the ring to the durable layout in the meantime.
    #[test]
    fn free_threaded_hammer_ends_drained_with_every_key_at_its_last_value() {
        use mpi_sim::{run_world_mode, SchedMode};
        const KEYS: usize = 6;
        const ROUNDS: usize = 40;
        let machine = Machine::chameleon();
        let dev = PmemDevice::new(Arc::clone(&machine), 16 << 20, PersistenceMode::Fast);
        let dev_in = Arc::clone(&dev);
        run_world_mode(machine, 8, SchedMode::FreeThreaded, move |comm| {
            let me = comm.rank();
            let layout = mount(&dev_in);
            let clock = Clock::new();
            let key = |k: usize| format!("r{me}k{k}");
            // What round `r` writes: `len` bytes of `fill`.
            let version = |r: usize| ((me * 31 + r) as u8, 64 + r * 8);
            let check = |k: usize, r: usize| {
                let (fill, len) = version(r);
                assert_eq!(load(&layout, &key(k), len), vec![fill; len], "{}", key(k));
            };
            let mut last = [0usize; KEYS];
            comm.barrier();
            for round in 0..ROUNDS {
                for k in (0..KEYS).filter(|k| round == 0 || (k + round) % 3 != 0) {
                    store(&layout, &key(k), version(round).0, version(round).1);
                    last[k] = round;
                }
                (0..KEYS).for_each(|k| check(k, last[k]));
                if round % 7 == me % 7 {
                    layout.checkpoint(&clock).unwrap();
                }
            }
            comm.barrier();
            layout.checkpoint(&clock).unwrap();
            assert_eq!(assert_front_is_fold(&layout, "after the hammer"), 0);
            (0..KEYS).for_each(|k| check(k, last[k]));
            comm.barrier();
        });
        release_pool(&dev);
    }
}
