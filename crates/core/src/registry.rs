//! Process-wide pool sharing.
//!
//! Every MPI rank calls `pmem.mmap(...)` independently (Fig. 3), yet ranks
//! must share one allocator and one lock table per pool — in reality the
//! kernel's shared mapping provides that; in the simulation the ranks are
//! threads, so a process-wide registry interns one [`PmemPool`] +
//! [`PersistentHashtable`] per device. Rank 0 creates (or recovers) the
//! pool; later arrivals receive the same handles. A write-behind job's WAL
//! and front index ride on the same entry.

use crate::error::Result;
use crate::write_behind::WriteBehindState;
use pmdk_sim::layout::Superblock;
use pmdk_sim::{PersistentHashtable, PmdkError, PmemPool};
use pmem_sim::sync::Mutex;
use pmem_sim::{Clock, PmemDevice};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Shared per-pool state handed to every rank.
#[derive(Clone)]
pub struct SharedPool {
    pub pool: Arc<PmemPool>,
    pub hashtable: Arc<PersistentHashtable>,
    /// Filled by the first rank that mounts with `Options::write_behind`.
    write_behind: Arc<Mutex<Option<Arc<WriteBehindState>>>>,
}

impl SharedPool {
    /// The pool's write-behind state: the ranks of a job share one WAL and
    /// one DRAM front index, just as they share one pool. The first arrival
    /// attaches it, which runs WAL recovery.
    pub(crate) fn write_behind(
        &self,
        clock: &Clock,
        wal_capacity: u64,
    ) -> Result<Arc<WriteBehindState>> {
        // Recovery charges the clock while the slot is locked; as in
        // `shared_pool`, stay unparkable for the duration.
        let _atomic = pmem_sim::atomic_section();
        let mut slot = self.write_behind.lock();
        if let Some(state) = &*slot {
            return Ok(Arc::clone(state));
        }
        let state = WriteBehindState::attach(clock, self, wal_capacity)?;
        *slot = Some(Arc::clone(&state));
        Ok(state)
    }
}

type Key = usize; // device address identity

fn registry() -> &'static Mutex<HashMap<Key, SharedPool>> {
    static REG: OnceLock<Mutex<HashMap<Key, SharedPool>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Get (or create on first call) the shared pool state for `device`.
///
/// The first caller formats the device if it holds no pool (no superblock
/// magic), or opens and recovers the one it holds; a pool that fails to
/// open is an error and is not written to. The hashtable header is stored
/// in the pool root. Subsequent callers get clones of the same handles.
pub fn shared_pool(
    clock: &Clock,
    device: &Arc<PmemDevice>,
    layout_name: &str,
    buckets: u64,
) -> Result<SharedPool> {
    let key = Arc::as_ptr(device) as usize;
    // Pool open/create charges heavily while the registry lock is held;
    // an atomic section keeps the deterministic scheduler from parking us
    // with the global registry locked.
    let _atomic = pmem_sim::atomic_section();
    let mut reg = registry().lock();
    if let Some(shared) = reg.get(&key) {
        return Ok(shared.clone());
    }
    // First arrival (or the previous job fully unmapped): open the pool, or
    // format a device that holds none. A damaged pool is the caller's error,
    // left as found for `pmemcpy-doctor`.
    let pool = match PmemPool::open(clock, Arc::clone(device), layout_name) {
        Err(PmdkError::BadPool(_)) if !Superblock::read(&**device).formatted() => {
            PmemPool::create(clock, Arc::clone(device), layout_name)?
        }
        opened => opened?,
    };
    // Root holds the hashtable header offset (8 bytes).
    let root = pool.root(clock, 8)?;
    let header = pool.read_u64(clock, root);
    let hashtable = if header == 0 {
        let ht = PersistentHashtable::create(clock, &pool, buckets)?;
        pool.write_u64(clock, root, ht.header_offset());
        ht
    } else {
        PersistentHashtable::open(clock, &pool, header)?
    };
    let shared = SharedPool {
        pool,
        hashtable: Arc::new(hashtable),
        write_behind: Arc::default(),
    };
    reg.insert(key, shared.clone());
    Ok(shared)
}

/// Drop the interned pool for `device` (called at munmap by the last rank;
/// harmless if others still hold clones — their Arcs keep the data alive).
pub fn release_pool(device: &Arc<PmemDevice>) {
    registry().lock().remove(&(Arc::as_ptr(device) as usize));
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::{Machine, PersistenceMode};

    #[test]
    fn second_caller_gets_the_same_pool() {
        let dev = PmemDevice::new(Machine::chameleon(), 2 << 20, PersistenceMode::Fast);
        let clock = Clock::new();
        let a = shared_pool(&clock, &dev, "pmemcpy", 64).unwrap();
        let b = shared_pool(&clock, &dev, "pmemcpy", 64).unwrap();
        assert!(Arc::ptr_eq(&a.pool, &b.pool));
        assert!(Arc::ptr_eq(&a.hashtable, &b.hashtable));
        release_pool(&dev);
    }

    #[test]
    fn release_then_reacquire_reopens_the_same_data() {
        let dev = PmemDevice::new(Machine::chameleon(), 2 << 20, PersistenceMode::Fast);
        let clock = Clock::new();
        let a = shared_pool(&clock, &dev, "pmemcpy", 64).unwrap();
        a.hashtable.put(&clock, b"key", b"value").unwrap();
        drop(a);
        release_pool(&dev);
        let b = shared_pool(&clock, &dev, "pmemcpy", 64).unwrap();
        assert_eq!(b.hashtable.get(&clock, b"key").unwrap(), b"value");
        release_pool(&dev);
    }

    #[test]
    fn distinct_devices_get_distinct_pools() {
        let d1 = PmemDevice::new(Machine::chameleon(), 2 << 20, PersistenceMode::Fast);
        let d2 = PmemDevice::new(Machine::chameleon(), 2 << 20, PersistenceMode::Fast);
        let clock = Clock::new();
        let a = shared_pool(&clock, &d1, "pmemcpy", 64).unwrap();
        let b = shared_pool(&clock, &d2, "pmemcpy", 64).unwrap();
        assert!(!Arc::ptr_eq(&a.pool, &b.pool));
        release_pool(&d1);
        release_pool(&d2);
    }
}
