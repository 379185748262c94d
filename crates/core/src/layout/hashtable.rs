//! The default layout: one PMDK pool, flat namespace, persistent hashtable
//! with chaining (§3: *"Metadata is stored in a flat namespace using a
//! hashtable with chaining. This utilizes the high parallelism and random
//! access characteristics of PMEM."*).

use crate::error::{PmemCpyError, Result};
use crate::layout::{fill, serialize, Layout, Located, PutRequest};
use crate::registry::SharedPool;
use pmdk_sim::PmdkError;
use pmem_sim::{Clock, DaxMapping, Machine, PmemDevice};
use pserial::Serializer;
use std::sync::Arc;

pub(crate) struct HashtableLayout {
    shared: SharedPool,
    mapping: Arc<DaxMapping>,
    serializer: &'static dyn Serializer,
    machine: Arc<Machine>,
}

impl HashtableLayout {
    /// Build over an already-interned pool. `map_sync` configures the data
    /// mapping (the PMCPY-A/B switch).
    pub(crate) fn new(
        clock: &Clock,
        device: &Arc<PmemDevice>,
        shared: SharedPool,
        serializer: &'static dyn Serializer,
        map_sync: bool,
    ) -> Self {
        let mapping = DaxMapping::new(clock, Arc::clone(device), 0, device.size(), map_sync);
        HashtableLayout {
            machine: Arc::clone(device.machine()),
            shared,
            mapping,
            serializer,
        }
    }

    pub(crate) fn shared(&self) -> &SharedPool {
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

    fn store_many(&self, clock: &Clock, puts: &[PutRequest<'_>]) -> Result<()> {
        if puts.is_empty() {
            return Ok(());
        }
        let lens = serialize(self, clock, puts);
        // Each entry names its record's header length, so a get loads the
        // record in one access.
        let reqs: Vec<(&[u8], u64, u64)> = (puts.iter().zip(lens))
            .map(|(p, len)| (p.key.as_bytes(), len, self.serializer.header_len(p.meta)))
            .collect();
        let _span = (self.machine)
            .phase(clock, "put", "put.reserve")
            .arg("keys", puts.len() as u64);
        // One pool transaction, one allocator pass for the whole group, and
        // every value serialized into its entry before anything links it. A
        // fill that fails aborts the transaction; its error is the store's.
        let mut failed = None;
        let stored = self.shared.hashtable.put_many(clock, &reqs, |i, v, head| {
            let window = (v.offset as usize, v.len as usize);
            fill(self, clock, &puts[i], &self.mapping, window, head).map_err(|e| {
                let abort = PmdkError::TxFailure(format!("{}: {e}", puts[i].key));
                failed = Some(e);
                abort
            })
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(stored.map(drop)?),
        }
    }

    fn locate_many(&self, clock: &Clock, keys: &[&str]) -> Result<Vec<Located>> {
        // One grouped lookup: keys sharing a bucket are resolved by a single
        // chain walk, and answers from the mirror skip the pool entirely.
        let byte_keys: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        let vrefs = self.shared.hashtable.get_ref_many(clock, &byte_keys);
        keys.iter()
            .zip(vrefs)
            .map(|(key, vref)| {
                let v = vref.ok_or_else(|| PmemCpyError::NotFound(key.to_string()))?;
                Ok(Located::Mapped {
                    mapping: Arc::clone(&self.mapping),
                    offset: v.offset as usize,
                    len: v.len as usize,
                    header: Some(v.header_len as usize),
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
}
