//! The default layout: one PMDK pool, flat namespace, persistent hashtable
//! with chaining (§3: *"Metadata is stored in a flat namespace using a
//! hashtable with chaining. This utilizes the high parallelism and random
//! access characteristics of PMEM."*).

use crate::error::{PmemCpyError, Result};
use crate::layout::{Layout, Located, Reservation, ReserveRequest};
use crate::registry::SharedPool;
use pmem_sim::{Clock, DaxMapping, FlushStrategy, Machine, PmemDevice};
use pserial::Serializer;
use std::sync::Arc;

pub struct HashtableLayout {
    shared: SharedPool,
    mapping: Arc<DaxMapping>,
    serializer: &'static dyn Serializer,
    machine: Arc<Machine>,
    flush_strategy: FlushStrategy,
}

impl HashtableLayout {
    /// Build over an already-interned pool. `map_sync` configures the data
    /// mapping (the PMCPY-A/B switch); `flush_strategy` is the resolved
    /// put-path persist primitive (the pool's autotuned verdict or an
    /// options pin).
    pub fn new(
        clock: &Clock,
        device: &Arc<PmemDevice>,
        shared: SharedPool,
        serializer: &'static dyn Serializer,
        map_sync: bool,
        flush_strategy: FlushStrategy,
    ) -> Self {
        let mapping = DaxMapping::new(clock, Arc::clone(device), 0, device.size(), map_sync);
        HashtableLayout {
            machine: Arc::clone(device.machine()),
            shared,
            mapping,
            serializer,
            flush_strategy,
        }
    }

    pub fn mapping(&self) -> &Arc<DaxMapping> {
        &self.mapping
    }

    pub fn shared(&self) -> &SharedPool {
        &self.shared
    }
}

impl Layout for HashtableLayout {
    fn serializer(&self) -> &'static dyn Serializer {
        self.serializer
    }

    fn machine(&self) -> &Arc<Machine> {
        &self.machine
    }

    fn flush_strategy(&self) -> FlushStrategy {
        self.flush_strategy
    }

    fn reserve_many(&self, clock: &Clock, reqs: &[ReserveRequest<'_>]) -> Result<Vec<Reservation>> {
        // One pool transaction, one allocator pass for the whole group; the
        // caller then serializes straight into the mapped region — no DRAM
        // staging.
        let pairs: Vec<(&[u8], u64)> = reqs.iter().map(|r| (r.key.as_bytes(), r.slen)).collect();
        let vrefs = self.shared.hashtable.put_reserve_many(clock, &pairs)?;
        Ok(vrefs
            .into_iter()
            .map(|v| Reservation {
                mapping: Arc::clone(&self.mapping),
                offset: v.offset as usize,
                len: v.len as usize,
                unmap_after_persist: false,
            })
            .collect())
    }

    fn locate_many(&self, clock: &Clock, keys: &[&str]) -> Result<Vec<Located>> {
        // One grouped lookup: keys sharing a bucket are resolved by a single
        // chain walk, and shadow-index hits skip the pool entirely.
        let byte_keys: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        let vrefs = self.shared.hashtable.get_ref_many(clock, &byte_keys);
        keys.iter()
            .zip(vrefs)
            .map(|(key, vref)| {
                let v = vref.ok_or_else(|| PmemCpyError::NotFound(key.to_string()))?;
                Ok(Located {
                    mapping: Arc::clone(&self.mapping),
                    offset: v.offset as usize,
                    len: v.len as usize,
                    unmap_after_load: false,
                })
            })
            .collect()
    }

    fn exists(&self, clock: &Clock, key: &str) -> bool {
        self.shared.hashtable.contains(clock, key.as_bytes())
    }

    fn remove(&self, clock: &Clock, key: &str) -> Result<bool> {
        Ok(self.shared.hashtable.remove(clock, key.as_bytes())?)
    }

    fn keys(&self, clock: &Clock) -> Vec<String> {
        self.shared
            .hashtable
            .keys(clock)
            .into_iter()
            .map(|k| String::from_utf8_lossy(&k).into_owned())
            // `\0`-prefixed keys are reserved for internal metadata (the
            // write-behind WAL location) and never listed.
            .filter(|k| !k.starts_with('\0'))
            .collect()
    }

    fn quiesce(&self, clock: &Clock) -> Result<()> {
        Ok(self.shared.hashtable.quiesce(clock)?)
    }

    fn name(&self) -> &'static str {
        "pmdk-hashtable"
    }
}
