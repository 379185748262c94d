//! Configuration of a pMEMCPY handle.

use crate::error::{PmemCpyError, Result};
use pmem_sim::FlushStrategy;
use pserial::Serializer;

/// Options accepted by [`crate::Pmem::with_options`].
#[derive(Debug, Clone)]
pub struct Options {
    /// Serialization backend name: `"bp4"` (default, same family as ADIOS),
    /// `"cereal"`, `"capnp-lite"`, or `"raw"` (serialization disabled).
    pub serializer: String,
    /// Map the data region with MAP_SYNC (the paper's PMCPY-B). Improves
    /// crash consistency of the mapping at a significant latency cost.
    pub map_sync: bool,
    /// Starting bucket count of the metadata hashtable (`DevDax` targets;
    /// the hierarchical layout of an `Fs` target has none). The directory
    /// doubles incrementally once the live keys exceed half of it, so
    /// pre-size to at least twice the expected key count for a table that
    /// never splits.
    pub hashtable_buckets: u64,
    /// Write-behind persistence (off by default, giving the paper's inline
    /// behavior): puts land in a volatile DRAM front index plus one fenced
    /// append of the whole commit group to a persistent WAL, and a
    /// background checkpoint lane later drains the records into the regular
    /// layout, truncating the log under a crash-safe watermark. Durability
    /// is unchanged — every put is on PMEM before it returns — but the
    /// inline cost drops to a single streamed log append. Requires a
    /// `DevDax` target: the WAL lives in the pool (checked by `Pmem::mmap`).
    pub write_behind: bool,
    /// Ring capacity in bytes of the write-behind WAL (ignored unless
    /// `write_behind` is on). One commit group must fit in half the ring.
    pub wal_capacity: u64,
    /// Pin the put-path flush strategy instead of using the pool's
    /// autotuned verdict (see `pmem_sim::profile`). `None` (default)
    /// defers to the superblock-cached autotuner choice for the device
    /// profile the pool was mounted on.
    pub flush_strategy: Option<FlushStrategy>,
}

/// Smallest accepted [`Options::wal_capacity`] — below this a single batched
/// record could never fit in half the ring.
pub const MIN_WAL_CAPACITY: u64 = 4096;

impl Default for Options {
    fn default() -> Self {
        Options {
            serializer: "bp4".to_string(),
            map_sync: false,
            hashtable_buckets: 4096,
            write_behind: false,
            wal_capacity: 8 << 20,
            flush_strategy: None,
        }
    }
}

impl Options {
    /// The paper's PMCPY-A configuration (MAP_SYNC disabled).
    pub fn pmcpy_a() -> Self {
        Options::default()
    }

    /// The paper's PMCPY-B configuration (MAP_SYNC enabled).
    pub fn pmcpy_b() -> Self {
        Options {
            map_sync: true,
            ..Options::default()
        }
    }

    /// The write-behind configuration: inline puts replaced by WAL appends.
    pub fn write_behind() -> Self {
        Options {
            write_behind: true,
            ..Options::default()
        }
    }

    /// Resolve the serializer from the registry.
    pub fn resolve_serializer(&self) -> Result<&'static dyn Serializer> {
        pserial::by_name(&self.serializer).ok_or_else(|| {
            PmemCpyError::Config(format!("unknown serializer {:?}", self.serializer))
        })
    }

    /// Reject inconsistent combinations up front, at `mmap` time, instead of
    /// panicking (or corrupting semantics) deep inside the pipeline.
    pub fn validate(&self) -> Result<()> {
        if self.hashtable_buckets == 0 {
            return Err(PmemCpyError::Config(
                "hashtable_buckets must be nonzero".into(),
            ));
        }
        if self.write_behind && self.wal_capacity < MIN_WAL_CAPACITY {
            return Err(PmemCpyError::Config(format!(
                "wal_capacity {} is below the {MIN_WAL_CAPACITY}-byte minimum",
                self.wal_capacity
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The defaults are the paper's configuration, and the option surface is
    /// part of the design: serializer, MAP_SYNC and table size (the layout
    /// follows the `mmap` target) plus the write-behind and flush knobs.
    /// Destructuring without `..` makes a seventh field a compile error
    /// here, so adding one is a decision a reviewer has to answer for.
    #[test]
    fn defaults_match_the_paper() {
        let Options {
            serializer,
            map_sync,
            hashtable_buckets,
            write_behind,
            wal_capacity,
            flush_strategy,
        } = Options::default();
        assert_eq!(serializer, "bp4");
        assert!(!map_sync);
        assert_eq!(hashtable_buckets, 4096);
        assert!(!write_behind);
        assert_eq!(wal_capacity, 8 << 20);
        assert_eq!(flush_strategy, None);
    }

    #[test]
    fn ab_variants_differ_only_in_map_sync() {
        let a = Options::pmcpy_a();
        let b = Options::pmcpy_b();
        assert!(!a.map_sync && b.map_sync);
        assert_eq!(a.serializer, b.serializer);
    }

    #[test]
    fn validate_accepts_the_defaults_and_write_behind() {
        Options::default().validate().unwrap();
        Options::pmcpy_b().validate().unwrap();
        Options::write_behind().validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_write_behind_combinations() {
        for bad in [
            Options {
                wal_capacity: 0,
                ..Options::write_behind()
            },
            Options {
                wal_capacity: MIN_WAL_CAPACITY - 1,
                ..Options::write_behind()
            },
            Options {
                hashtable_buckets: 0,
                ..Options::default()
            },
        ] {
            assert!(
                matches!(bad.validate(), Err(PmemCpyError::Config(_))),
                "accepted invalid options: {bad:?}"
            );
        }
    }

    #[test]
    fn unknown_serializer_is_a_config_error() {
        let o = Options {
            serializer: "json".into(),
            ..Options::default()
        };
        assert!(matches!(
            o.resolve_serializer(),
            Err(PmemCpyError::Config(_))
        ));
    }
}
