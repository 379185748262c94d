//! The built-in device profiles.
//!
//! The cost model used to hardcode one Optane-like machine
//! ([`MachineConfig::chameleon_skylake`]). A profile is a complete
//! [`MachineConfig`] — latencies, bandwidths, the costs of both persist
//! primitives, whether persists need explicit flushing at all (eADR), and
//! the primitive a put persists its record with — so the same library code
//! can be evaluated across the PMEM device landscape:
//!
//! | profile       | sketch                                                  |
//! |---------------|---------------------------------------------------------|
//! | `optane-gen1` | the paper's testbed; identical to `chameleon_skylake()` |
//! | `optane-gen2` | faster media, improved write-combining for ntstores     |
//! | `eadr`        | gen2 media with the cache in the persistence domain     |
//! | `cxl`         | fabric-attached: high latency, write-favoring bandwidth |
//!
//! "Persistent Memory I/O Primitives" (van Renen et al.) shows the cheaper
//! persist primitive (CLWB-batched vs ntstore-style streaming) flips with
//! the device's latency/bandwidth shape, so each profile declares its own
//! [`MachineConfig::flush_strategy`]. The unit tests below price both
//! primitives in virtual time and hold every profile to the cheaper one.

use crate::machine::{FlushStrategy, MachineConfig};
use crate::time::SimTime;

/// Every built-in profile, in superblock-id order: a profile's id is its
/// position + 1. Append-only: ids are never reused or renumbered; 0 is
/// reserved for unset.
const PROFILES: [fn() -> MachineConfig; 4] =
    [MachineConfig::chameleon_skylake, optane_gen2, eadr, cxl];

/// Second-generation Optane (Barlow-Pass-like): lower media latency, more
/// aggregate bandwidth, and a controller whose write-combining makes
/// streaming stores the cheaper persist primitive for record-sized writes.
fn optane_gen2() -> MachineConfig {
    MachineConfig {
        profile_name: "optane-gen2",
        pmem_read_latency: SimTime::from_nanos(170),
        pmem_write_latency: SimTime::from_nanos(90),
        pmem_read_bw: 40_000_000_000,
        pmem_write_bw: 12_000_000_000,
        pmem_read_core_bw: 1_600_000_000,
        pmem_write_core_bw: 600_000_000,
        // Improved controller write-combining: a streaming burst posts
        // with one cheap initiation and the per-line cost is absorbed
        // by the combine buffer, while CLWB still pays gen1's full
        // writeback initiation — the persist optimum flips to ntstore.
        ntstore_base: SimTime::from_nanos(15),
        ntstore_per_line: SimTime::ZERO,
        flush_strategy: FlushStrategy::Ntstore,
        ..MachineConfig::chameleon_skylake()
    }
}

/// An eADR platform on gen2-class media: the cache hierarchy is inside the
/// persistence domain, so flushes cost nothing (fences still order stores)
/// and both primitives tie; the tie goes to the classic CLWB path.
fn eadr() -> MachineConfig {
    MachineConfig {
        profile_name: "eadr",
        needs_flush: false,
        flush_strategy: FlushStrategy::Clwb,
        ..optane_gen2()
    }
}

/// CXL-attached persistent memory: every access pays the fabric round
/// trip, and the controller's buffered write path inverts the read/write
/// bandwidth asymmetry relative to Optane.
fn cxl() -> MachineConfig {
    MachineConfig {
        profile_name: "cxl",
        pmem_read_latency: SimTime::from_nanos(600),
        pmem_write_latency: SimTime::from_nanos(450),
        // Inverted asymmetry: the controller write-combines into a
        // buffered media queue while every read pays the full fabric
        // round trip.
        pmem_read_bw: 12_000_000_000,
        pmem_write_bw: 16_000_000_000,
        pmem_read_core_bw: 800_000_000,
        pmem_write_core_bw: 1_000_000_000,
        // Each CLWB is an end-to-end fabric round trip; streaming
        // stores pipeline through the controller instead.
        flush_base: SimTime::from_nanos(60),
        flush_per_line: SimTime::from_nanos(4),
        ntstore_base: SimTime::from_nanos(120),
        flush_strategy: FlushStrategy::Ntstore,
        fence: SimTime::from_nanos(60),
        ..MachineConfig::chameleon_skylake()
    }
}

/// The valid profile names (CLI error messages, docs).
pub fn profile_names() -> Vec<&'static str> {
    PROFILES.iter().map(|p| p().profile_name).collect()
}

/// The built-in profile called `name`.
pub fn by_name(name: &str) -> Option<MachineConfig> {
    PROFILES
        .iter()
        .map(|p| p())
        .find(|c| c.profile_name == name)
}

/// Superblock id for a profile name (0 if unknown).
pub fn profile_id(name: &str) -> u32 {
    profile_names()
        .iter()
        .position(|&n| n == name)
        .map_or(0, |i| i as u32 + 1)
}

pub fn profile_name_by_id(id: u32) -> Option<&'static str> {
    let i = (id as usize).checked_sub(1)?;
    PROFILES.get(i).map(|p| p().profile_name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::time::Clock;

    /// One record-sized persist and its fence with `strategy` on a scratch
    /// machine. 64 KiB is large enough that both the fixed initiation cost
    /// and the per-line slope take part.
    fn probe(config: &MachineConfig, strategy: FlushStrategy) -> SimTime {
        let machine = Machine::new(config.clone());
        let clock = Clock::new();
        machine.charge_writeback(&clock, strategy, 64 * 1024, &[]);
        machine.charge_fence(&clock);
        clock.now()
    }

    #[test]
    fn optane_gen1_is_byte_identical_to_chameleon() {
        assert_eq!(
            by_name("optane-gen1"),
            Some(MachineConfig::chameleon_skylake())
        );
    }

    #[test]
    fn names_ids_and_lookups_round_trip() {
        let names = profile_names();
        assert_eq!(names, ["optane-gen1", "optane-gen2", "eadr", "cxl"]);
        for (i, name) in names.into_iter().enumerate() {
            let id = i as u32 + 1;
            assert_eq!(profile_id(name), id);
            assert_eq!(profile_name_by_id(id), Some(name));
            assert_eq!(by_name(name).unwrap().profile_name, name);
        }
        assert!(by_name("nvdimm-9000").is_none());
        assert_eq!(profile_id("nvdimm-9000"), 0);
        assert_eq!(profile_name_by_id(0), None);
        assert_eq!(profile_name_by_id(5), None);
    }

    /// Every profile declares the primitive that persists a record cheaper
    /// on it, at any byte scale (the scale multiplies both line counts
    /// alike). A tie, which eADR's bare fences make, goes to CLWB.
    #[test]
    fn each_profile_declares_its_cheaper_primitive() {
        use FlushStrategy::{Clwb, Ntstore};
        let expect = [
            ("optane-gen1", Clwb),
            ("optane-gen2", Ntstore),
            ("eadr", Clwb),
            ("cxl", Ntstore),
        ];
        for (name, strategy) in expect {
            let mut config = by_name(name).unwrap();
            assert_eq!(config.flush_strategy, strategy, "{name}");
            for byte_scale in [1, 5_000] {
                config.byte_scale = byte_scale;
                let (clwb, ntstore) = (probe(&config, Clwb), probe(&config, Ntstore));
                let cheaper = if ntstore < clwb { Ntstore } else { Clwb };
                assert_eq!(cheaper, strategy, "{name} at byte_scale {byte_scale}");
            }
        }
    }

    /// What one more CLWB line adds to a flush: nothing on the Optane-class
    /// profiles (pipelined, below the 1 ns resolution; eADR flushes nothing
    /// at all), a fabric round trip's 4 ns on `cxl`.
    #[test]
    fn a_clwb_line_costs_nothing_but_on_cxl() {
        let line = |name: &str| {
            let machine = Machine::new(by_name(name).unwrap());
            let flush = |lines: u64| {
                let clock = Clock::new();
                machine.charge_writeback(&clock, FlushStrategy::Clwb, lines * 64, &[]);
                clock.now()
            };
            flush(2) - flush(1)
        };
        for name in ["optane-gen1", "optane-gen2", "eadr"] {
            assert_eq!(line(name), SimTime::ZERO, "{name}");
        }
        assert_eq!(line("cxl"), SimTime::from_nanos(4));
    }

    #[test]
    fn eadr_flushes_are_free_but_fences_still_charge() {
        let m = Machine::new(eadr());
        let c = Clock::new();
        m.charge_flush(&c, 1 << 20);
        m.charge_writeback(&c, FlushStrategy::Ntstore, 1 << 20, &[]);
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(m.stats.snapshot().flush_calls, 0);
        m.charge_fence(&c);
        assert!(c.now() > SimTime::ZERO);
    }
}
