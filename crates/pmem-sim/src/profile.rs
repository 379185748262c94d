//! Pluggable device profiles + flush-primitive autotuning.
//!
//! The cost model used to hardcode one Optane-like machine
//! ([`MachineConfig::chameleon_skylake`]). A [`DeviceProfile`] names a
//! complete set of constants — latencies, bandwidths, flush/fence costs,
//! and whether persists need explicit flushing at all (eADR) — so the same
//! library code can be evaluated across the PMEM device landscape:
//!
//! | profile       | sketch                                                  |
//! |---------------|---------------------------------------------------------|
//! | `optane-gen1` | the paper's testbed; identical to `chameleon_skylake()` |
//! | `optane-gen2` | faster media, improved write-combining for ntstores     |
//! | `eadr`        | gen2 media with the cache in the persistence domain     |
//! | `cxl`         | fabric-attached: high latency, write-favoring bandwidth |
//!
//! On top of that seam sits the flush-strategy autotuner: "Persistent
//! Memory I/O Primitives" (van Renen et al.) shows the optimal persist
//! primitive (CLWB-batched vs ntstore-style streaming) flips with the
//! device's latency/bandwidth shape, so [`autotune_flush`] micro-probes
//! each [`FlushStrategy`] in measured virtual time on a scratch machine and
//! picks the cheaper one. The probe is pure arithmetic over the config —
//! deterministic under every scheduler mode, and invisible to the caller's
//! clocks and stats.

use crate::machine::{Machine, MachineConfig};
use crate::time::{Clock, SimTime};

/// How the put path persists a freshly written record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FlushStrategy {
    /// CLWB-batched: write back the record's cachelines in pipelined runs,
    /// then one trailing fence. The classic (and gen1-optimal) path.
    #[default]
    Clwb,
    /// Streaming: one ntstore-style whole-record writeback that bypasses
    /// the cache, then the trailing fence.
    Ntstore,
}

impl FlushStrategy {
    #[cfg(test)]
    const ALL: [FlushStrategy; 2] = [FlushStrategy::Clwb, FlushStrategy::Ntstore];

    pub fn name(self) -> &'static str {
        match self {
            FlushStrategy::Clwb => "clwb",
            FlushStrategy::Ntstore => "ntstore",
        }
    }

    #[cfg(test)]
    fn from_name(name: &str) -> Option<Self> {
        match name {
            "clwb" => Some(FlushStrategy::Clwb),
            "ntstore" => Some(FlushStrategy::Ntstore),
            _ => None,
        }
    }

    /// Superblock encoding. 0 is reserved for "not yet tuned" so pools
    /// created before this field existed read back as untuned.
    pub fn code(self) -> u32 {
        match self {
            FlushStrategy::Clwb => 1,
            FlushStrategy::Ntstore => 2,
        }
    }

    pub fn from_code(code: u32) -> Option<Self> {
        match code {
            1 => Some(FlushStrategy::Clwb),
            2 => Some(FlushStrategy::Ntstore),
            _ => None,
        }
    }
}

/// A named device cost model. Implementations are zero-sized marker types;
/// all state lives in the [`MachineConfig`] they produce.
pub trait DeviceProfile: Send + Sync {
    /// Stable human-readable name (CLI flags, reports, docs).
    fn name(&self) -> &'static str;
    /// Stable superblock id. Append-only: ids are never reused or
    /// renumbered; 0 is reserved for unset/legacy pools.
    fn id(&self) -> u32;
    /// Whether persists need explicit flushes (`false` = eADR).
    fn needs_flush(&self) -> bool {
        true
    }
    /// The full cost-model constants for this device.
    fn config(&self) -> MachineConfig;
}

/// The paper's testbed: gen1 Optane emulated per the Strata method.
/// Byte-identical to [`MachineConfig::chameleon_skylake`] by construction.
pub(crate) struct OptaneGen1;

/// Second-generation Optane (Barlow-Pass-like): lower media latency, more
/// aggregate bandwidth, and a controller whose write-combining makes
/// streaming stores the cheaper persist primitive for record-sized writes.
pub(crate) struct OptaneGen2;

/// An eADR platform on gen2-class media: the cache hierarchy is inside the
/// persistence domain, so flushes cost nothing (fences still order stores).
pub(crate) struct Eadr;

/// CXL-attached persistent memory: every access pays the fabric round
/// trip, and the controller's buffered write path inverts the read/write
/// bandwidth asymmetry relative to Optane.
pub(crate) struct Cxl;

impl DeviceProfile for OptaneGen1 {
    fn name(&self) -> &'static str {
        "optane-gen1"
    }
    fn id(&self) -> u32 {
        1
    }
    fn config(&self) -> MachineConfig {
        MachineConfig::chameleon_skylake()
    }
}

impl DeviceProfile for OptaneGen2 {
    fn name(&self) -> &'static str {
        "optane-gen2"
    }
    fn id(&self) -> u32 {
        2
    }
    fn config(&self) -> MachineConfig {
        MachineConfig {
            profile_name: self.name(),
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
            ..MachineConfig::chameleon_skylake()
        }
    }
}

impl DeviceProfile for Eadr {
    fn name(&self) -> &'static str {
        "eadr"
    }
    fn id(&self) -> u32 {
        3
    }
    fn needs_flush(&self) -> bool {
        false
    }
    fn config(&self) -> MachineConfig {
        MachineConfig {
            profile_name: self.name(),
            needs_flush: false,
            ..OptaneGen2.config()
        }
    }
}

impl DeviceProfile for Cxl {
    fn name(&self) -> &'static str {
        "cxl"
    }
    fn id(&self) -> u32 {
        4
    }
    fn config(&self) -> MachineConfig {
        MachineConfig {
            profile_name: self.name(),
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
            fence: SimTime::from_nanos(60),
            ..MachineConfig::chameleon_skylake()
        }
    }
}

/// Every built-in profile, in superblock-id order.
pub(crate) fn all_profiles() -> [&'static dyn DeviceProfile; 4] {
    [&OptaneGen1, &OptaneGen2, &Eadr, &Cxl]
}

/// The valid profile names (CLI error messages, docs).
pub fn profile_names() -> Vec<&'static str> {
    all_profiles().iter().map(|p| p.name()).collect()
}

pub fn by_name(name: &str) -> Option<&'static dyn DeviceProfile> {
    all_profiles().into_iter().find(|p| p.name() == name)
}

/// Superblock id for a profile name (0 if unknown — callers treat unknown
/// as "re-probe").
pub fn profile_id(name: &str) -> u32 {
    by_name(name).map_or(0, |p| p.id())
}

pub fn profile_name_by_id(id: u32) -> Option<&'static str> {
    all_profiles()
        .into_iter()
        .find(|p| p.id() == id)
        .map(|p| p.name())
}

/// Bytes per strategy micro-probe: one representative record-sized persist.
/// Large enough that both the fixed initiation cost and the per-line slope
/// participate, so the pick reflects a realistic put-path persist rather
/// than bare call overhead.
pub(crate) const PROBE_BYTES: u64 = 64 * 1024;

/// Deterministically pick the cheaper [`FlushStrategy`] for `config` by
/// micro-probing each candidate in measured virtual time on a scratch
/// machine — the caller's clocks and stats are never touched. Ties go to
/// CLWB, which keeps eADR (where both probes degenerate to a bare fence)
/// on the classic path.
pub fn autotune_flush(config: &MachineConfig) -> FlushStrategy {
    let machine = Machine::new(config.clone());
    let probe = |strategy: FlushStrategy| {
        let clock = Clock::new();
        match strategy {
            FlushStrategy::Clwb => machine.charge_flush(&clock, PROBE_BYTES),
            FlushStrategy::Ntstore => machine.charge_ntstore(&clock, PROBE_BYTES),
        }
        machine.charge_fence(&clock);
        clock.now()
    };
    if probe(FlushStrategy::Ntstore) < probe(FlushStrategy::Clwb) {
        FlushStrategy::Ntstore
    } else {
        FlushStrategy::Clwb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optane_gen1_is_byte_identical_to_chameleon() {
        assert_eq!(OptaneGen1.config(), MachineConfig::chameleon_skylake());
    }

    #[test]
    fn names_ids_and_lookups_round_trip() {
        for p in all_profiles() {
            assert_eq!(by_name(p.name()).unwrap().id(), p.id());
            assert_eq!(profile_id(p.name()), p.id());
            assert_eq!(profile_name_by_id(p.id()), Some(p.name()));
            assert_eq!(p.config().profile_name, p.name());
            assert_eq!(p.config().needs_flush, p.needs_flush());
        }
        assert!(by_name("nvdimm-9000").is_none());
        assert_eq!(profile_id("nvdimm-9000"), 0);
        assert_eq!(profile_name_by_id(0), None);
    }

    #[test]
    fn strategy_codes_round_trip_and_zero_means_untuned() {
        for s in FlushStrategy::ALL {
            assert_eq!(FlushStrategy::from_code(s.code()), Some(s));
            assert_eq!(FlushStrategy::from_name(s.name()), Some(s));
        }
        assert_eq!(FlushStrategy::from_code(0), None);
    }

    #[test]
    fn autotuner_picks_expected_strategy_per_profile() {
        let expect = [
            ("optane-gen1", FlushStrategy::Clwb),
            ("optane-gen2", FlushStrategy::Ntstore),
            ("eadr", FlushStrategy::Clwb),
            ("cxl", FlushStrategy::Ntstore),
        ];
        for (name, strategy) in expect {
            let cfg = by_name(name).unwrap().config();
            assert_eq!(autotune_flush(&cfg), strategy, "profile {name}");
        }
    }

    #[test]
    fn autotune_is_scale_invariant() {
        // byte_scale multiplies both probes' line counts equally, so the
        // pick must not depend on it.
        for p in all_profiles() {
            let mut cfg = p.config();
            let base = autotune_flush(&cfg);
            cfg.byte_scale = 5_000;
            assert_eq!(autotune_flush(&cfg), base, "profile {}", p.name());
        }
    }

    #[test]
    fn eadr_flushes_are_free_but_fences_still_charge() {
        let m = Machine::new(Eadr.config());
        let c = Clock::new();
        m.charge_flush(&c, 1 << 20);
        m.charge_ntstore(&c, 1 << 20);
        assert_eq!(c.now(), SimTime::ZERO);
        assert_eq!(m.stats.snapshot().flush_calls, 0);
        m.charge_fence(&c);
        assert!(c.now() > SimTime::ZERO);
    }
}
