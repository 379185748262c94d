//! Process-wide pool sharing.
//!
//! Every MPI rank calls `pmem.mmap(...)` independently (Fig. 3), yet ranks
//! must share one allocator and one lock table per pool — in reality the
//! kernel's shared mapping provides that; in the simulation the ranks are
//! threads, so a process-wide registry interns one [`PmemPool`] +
//! [`PersistentHashtable`] per device. Rank 0 creates (or recovers) the
//! pool; later arrivals receive the same handles.

use crate::error::Result;
use pmdk_sim::{PersistentHashtable, PmemPool};
use pmem_sim::sync::Mutex;
use pmem_sim::{Clock, PmemDevice};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Shared per-pool state handed to every rank.
#[derive(Clone)]
pub struct SharedPool {
    pub pool: Arc<PmemPool>,
    pub hashtable: Arc<PersistentHashtable>,
}

type Key = usize; // device address identity

fn registry() -> &'static Mutex<HashMap<Key, SharedPool>> {
    static REG: OnceLock<Mutex<HashMap<Key, SharedPool>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Get (or create on first call) the shared pool state for `device`.
///
/// The first caller formats the device if it holds no pool, or opens and
/// recovers an existing one; the hashtable header is stored in the pool
/// root. Subsequent callers get clones of the same handles.
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
    // First arrival (or the previous job fully unmapped): create/open.
    let pool = match PmemPool::open(clock, Arc::clone(device), layout_name) {
        Ok(p) => p,
        Err(pmdk_sim::PmdkError::BadPool(_)) => {
            PmemPool::create(clock, Arc::clone(device), layout_name)?
        }
        Err(e) => return Err(e.into()),
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
    };
    reg.insert(key, shared.clone());
    Ok(shared)
}

/// Get (or create + recover on first call) the shared write-behind state for
/// `device`: the ranks of a job share one WAL and one DRAM front index, just
/// as they share one pool. The first arrival runs WAL recovery (replay of
/// log-over-last-checkpoint into the front index).
pub fn write_behind_state(
    clock: &Clock,
    device: &Arc<PmemDevice>,
    shared: &SharedPool,
    wal_capacity: u64,
) -> Result<Arc<crate::write_behind::WriteBehindState>> {
    let key = Arc::as_ptr(device) as usize;
    // Recovery charges the clock while the map lock is held; as with
    // `shared_pool`, stay unparkable for the duration.
    let _atomic = pmem_sim::atomic_section();
    let mut map = wb_holder().lock();
    if let Some(state) = map.get(&key) {
        return Ok(Arc::clone(state));
    }
    let state = crate::write_behind::WriteBehindState::attach(clock, shared, wal_capacity)?;
    map.insert(key, Arc::clone(&state));
    Ok(state)
}

/// Drop the interned pool for `device` (called at munmap by the last rank;
/// harmless if others still hold clones — their Arcs keep the data alive).
pub fn release_pool(device: &Arc<PmemDevice>) {
    let key = Arc::as_ptr(device) as usize;
    wb_holder().lock().remove(&key);
    registry().lock().remove(&key);
}

fn wb_holder() -> &'static Mutex<HashMap<Key, Arc<crate::write_behind::WriteBehindState>>> {
    static HOLD: OnceLock<Mutex<HashMap<Key, Arc<crate::write_behind::WriteBehindState>>>> =
        OnceLock::new();
    HOLD.get_or_init(|| Mutex::new(HashMap::new()))
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
