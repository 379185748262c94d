//! The benchmark's names: every end-to-end and per-layer metric with its
//! unit, clock, direction and (end to end) bound. `BENCHMARK.json` is
//! generated from these tables (`--print-manifest`) and a test holds the
//! committed file to them, so the names later changes are judged on are
//! written down once.

use crate::json;
use crate::workloads;

/// Which clock a number is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockKind {
    /// The virtual clock, or a count the deterministic scheduler makes
    /// repeat: bit-equal between two runs of one commit on one seed.
    Exact,
    /// Host wall-clock or host memory: subject to the machine's noise.
    Host,
}

impl ClockKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ClockKind::Exact => "exact",
            ClockKind::Host => "host",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: ClockKind,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    /// End-to-end metrics only; per-layer metrics have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, clock: ClockKind, bound: f64) -> Def {
    Def {
        name,
        unit,
        clock,
        better: Better::Lower,
        bound,
    }
}

use ClockKind::{Exact, Host};

/// Virtual-clock units are spelled `sim_s` / `sim_us`: modelled PMEM time is
/// not host time, and the unit says which clock a number is on.
///
/// The bounds are for medians over runs on *different seeds* (how the driver
/// compares two commits): a seed moves every key to another bucket, which
/// moves the virtual clock by up to ~2 % on the storms and latency tails by
/// ~3 % (measured, see README "Bounds"). On one seed the `exact` metrics are
/// bit-equal between runs, and `run.sh --compare` holds them to that.
pub const END_TO_END: &[Def] = &[
    e2e("sim_s", "sim_s", Exact, 0.06),
    e2e("host_s", "s", Host, 0.25),
    e2e("media_amp", "ratio", Exact, 0.03),
    e2e("space_amp", "ratio", Exact, 0.01),
    e2e("put_sim_p50_us", "sim_us", Exact, 0.05),
    e2e("put_sim_tail_us", "sim_us", Exact, 0.10),
    e2e("get_sim_p50_us", "sim_us", Exact, 0.12),
    e2e("get_sim_tail_us", "sim_us", Exact, 0.12),
    e2e("reopen_sim_s", "sim_s", Exact, 0.05),
    e2e("setup_s", "s", Host, 0.25),
    e2e("peak_rss_mb", "MB", Host, 0.10),
];

const fn layer(name: &'static str, unit: &'static str, clock: ClockKind, better: Better) -> Def {
    Def {
        name,
        unit,
        clock,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Per-layer metrics; the layers are the crates. Three sources, marked in
/// the comments: (L) a ladder rung — a fixed-count loop over one public
/// function, timed on both clocks; (C) counters and phase totals the crates
/// already export, read after the traced iteration; (S) harness spans.
pub const PER_LAYER: &[Def] = &[
    // pmem_sim — L
    layer("pmem_sim.charge.host_ns", "ns", Host, Lower),
    layer("pmem_sim.write_persist_4k.host_ns", "ns", Host, Lower),
    layer("pmem_sim.write_persist_4k.sim_ns", "sim_ns", Exact, Lower),
    layer(
        "pmem_sim.write_persist_4k_tracked.host_ns",
        "ns",
        Host,
        Lower,
    ),
    layer("pmem_sim.read_64k.host_ns", "ns", Host, Lower),
    layer("pmem_sim.read_64k.sim_ns", "sim_ns", Exact, Lower),
    // pmem_sim — C
    layer("pmem_sim.bytes_written", "B", Exact, Lower),
    layer("pmem_sim.bytes_read", "B", Exact, Lower),
    layer("pmem_sim.flush_calls", "count", Exact, Lower),
    layer("pmem_sim.fences", "count", Exact, Lower),
    layer("pmem_sim.page_faults", "count", Exact, Lower),
    layer("pmem_sim.data_write.sim_s", "sim_s", Exact, Lower),
    layer("pmem_sim.data_read.sim_s", "sim_s", Exact, Lower),
    layer("pmem_sim.meta.sim_s", "sim_s", Exact, Lower),
    layer("pmem_sim.flush_fence.sim_s", "sim_s", Exact, Lower),
    layer("pmem_sim.page_fault.sim_s", "sim_s", Exact, Lower),
    layer("pmem_sim.metrics_on.host_overhead_pct", "%", Host, Lower),
    // pmdk_sim — L
    layer("pmdk_sim.tx_set64.host_ns", "ns", Host, Lower),
    layer("pmdk_sim.tx_set64.sim_ns", "sim_ns", Exact, Lower),
    layer("pmdk_sim.alloc_many64.host_ns", "ns", Host, Lower),
    layer("pmdk_sim.alloc_many64.sim_ns", "sim_ns", Exact, Lower),
    layer("pmdk_sim.log_append_4k.host_ns", "ns", Host, Lower),
    layer("pmdk_sim.log_append_4k.sim_ns", "sim_ns", Exact, Lower),
    layer("pmdk_sim.ht_put_many64.host_ns", "ns", Host, Lower),
    layer("pmdk_sim.ht_put_many64.sim_ns", "sim_ns", Exact, Lower),
    layer("pmdk_sim.ht_get_many64.host_ns", "ns", Host, Lower),
    layer("pmdk_sim.ht_get_many64.sim_ns", "sim_ns", Exact, Lower),
    layer(
        "pmdk_sim.ht_get_many64_noshadow.sim_ns",
        "sim_ns",
        Exact,
        Lower,
    ),
    layer("pmdk_sim.pool_open.host_ms", "ms", Host, Lower),
    layer("pmdk_sim.pool_open.sim_ms", "sim_ms", Exact, Lower),
    // pmdk_sim — C
    layer("pmdk_sim.pool_txs", "count", Exact, Lower),
    layer("pmdk_sim.alloc_passes", "count", Exact, Lower),
    layer("pmdk_sim.tx_undo_bytes", "B", Exact, Lower),
    layer("pmdk_sim.ht_splits", "count", Exact, Lower),
    layer("pmdk_sim.ht_entries_migrated", "count", Exact, Lower),
    layer("pmdk_sim.ht_chain_max", "count", Exact, Lower),
    layer("pmdk_sim.shadow_hit_ratio", "ratio", Exact, Higher),
    layer("pmdk_sim.pool_reads_per_get", "ratio", Exact, Lower),
    layer("pmdk_sim.seqlock_retries", "count", Exact, Lower),
    layer("pmdk_sim.tx.sim_s", "sim_s", Exact, Lower),
    layer("pmdk_sim.ht_resize.sim_s", "sim_s", Exact, Lower),
    // pserial — L, C
    layer("pserial.bp4_write.host_ns_per_kib", "ns/KiB", Host, Lower),
    layer("pserial.bp4_read.host_ns_per_kib", "ns/KiB", Host, Lower),
    layer("pserial.serialize.sim_s", "sim_s", Exact, Lower),
    // simfs — L, C
    layer("simfs.dax_write_64k.host_ns", "ns", Host, Lower),
    layer("simfs.dax_write_64k.sim_ns", "sim_ns", Exact, Lower),
    layer("simfs.syscalls", "count", Exact, Lower),
    // mpi_sim — L, C, probe
    layer("mpi_sim.charge_solo.host_ns", "ns", Host, Lower),
    layer("mpi_sim.handoff8.host_ns", "ns", Host, Lower),
    layer("mpi_sim.handoff24.host_ns", "ns", Host, Lower),
    layer("mpi_sim.barrier8.host_us", "us", Host, Lower),
    layer("mpi_sim.barrier8.sim_us", "sim_us", Exact, Lower),
    layer("mpi_sim.spawn_join24.host_us", "us", Host, Lower),
    layer("mpi_sim.wait.sim_s", "sim_s", Exact, Lower),
    layer("mpi_sim.collapse.host_s", "s", Host, Lower),
    layer("mpi_sim.sched.host_share", "ratio", Host, Lower),
    layer("mpi_sim.implied_handoffs_per_op", "ratio", Host, Lower),
    // core — S
    layer("core.mmap.host_us", "us", Host, Lower),
    layer("core.mmap.sim_us", "sim_us", Exact, Lower),
    layer("core.put.host_us_p50", "us", Host, Lower),
    layer("core.put.host_us_tail", "us", Host, Lower),
    layer("core.get.host_us_p50", "us", Host, Lower),
    layer("core.get.host_us_tail", "us", Host, Lower),
    layer("core.remove.host_us_p50", "us", Host, Lower),
    layer("core.munmap.host_us", "us", Host, Lower),
    layer("core.munmap.sim_us", "sim_us", Exact, Lower),
    layer("core.reopen_mmap.sim_us", "sim_us", Exact, Lower),
    // core — C
    layer("core.put_reserve.sim_s", "sim_s", Exact, Lower),
    layer("core.put_memcpy.sim_s", "sim_s", Exact, Lower),
    layer("core.put_persist.sim_s", "sim_s", Exact, Lower),
    layer("core.get_lookup.sim_s", "sim_s", Exact, Lower),
    layer("core.get_memcpy.sim_s", "sim_s", Exact, Lower),
    layer("core.wal_append.sim_s", "sim_s", Exact, Lower),
    layer("core.ckpt_lane.sim_s", "sim_s", Exact, Lower),
    layer("core.unattributed.sim_s", "sim_s", Exact, Lower),
    layer("core.lanes.sim_s", "sim_s", Exact, Lower),
    layer("core.tiling_residual_ns", "sim_ns", Exact, Lower),
    layer("core.wal_appends", "count", Exact, Lower),
    layer("core.wal_bypass", "count", Exact, Lower),
    layer("core.ckpt_drains", "count", Exact, Lower),
    layer("core.front_hits", "count", Exact, Higher),
    layer("core.put_logical_bytes", "B", Exact, Lower),
    layer("core.put_media_bytes", "B", Exact, Lower),
    // baselines — comparator pass (accuracy, not speed)
    layer("baselines.adios.write_sim_s", "sim_s", Exact, Lower),
    layer("baselines.adios.read_sim_s", "sim_s", Exact, Lower),
    layer("baselines.netcdf.write_sim_s", "sim_s", Exact, Lower),
    layer("baselines.netcdf.read_sim_s", "sim_s", Exact, Lower),
    layer("baselines.pnetcdf.write_sim_s", "sim_s", Exact, Lower),
    layer("baselines.pnetcdf.read_sim_s", "sim_s", Exact, Lower),
    layer("baselines.pmcpy_b.write_sim_s", "sim_s", Exact, Lower),
    layer("baselines.pmcpy_b.read_sim_s", "sim_s", Exact, Lower),
    layer("baselines.adios_over_a.write_ratio", "ratio", Exact, Higher),
    layer("baselines.adios_over_a.read_ratio", "ratio", Exact, Higher),
    layer(
        "baselines.netcdf_over_a.write_ratio",
        "ratio",
        Exact,
        Higher,
    ),
    layer("baselines.netcdf_over_a.read_ratio", "ratio", Exact, Higher),
    layer("baselines.b_over_a.write_ratio", "ratio", Exact, Higher),
    layer("baselines.b_over_a.read_ratio", "ratio", Exact, Higher),
    layer("baselines.stage_bytes", "B", Exact, Lower),
    layer("baselines.rearrange_bytes", "B", Exact, Lower),
    // workloads
    layer("workloads.generate.host_s", "s", Host, Lower),
    layer("workloads.verify.host_s", "s", Host, Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().find(|d| d.name == name)
}

pub fn per_layer(name: &str) -> Option<&'static Def> {
    PER_LAYER.iter().find(|d| d.name == name)
}

/// Seconds one run measures (`run_seconds`): long enough for a dozen
/// iterations of the domain cells and seven of the inline storm, short enough
/// that the driver's 114 runs fit its budget.
pub const RUN_SECONDS: u64 = 8;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let rows = |rows: Vec<String>| rows.join(",\n");
    let workloads = workloads::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json::quote(w.name),
                json::quote(w.why)
            )
        })
        .collect();
    let head = |d: &Def| {
        format!(
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}",
            json::quote(d.name),
            json::quote(d.unit),
            json::quote(d.better.as_str())
        )
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|d| format!("{}, \"bound\": {}}}", head(d), json::number(d.bound)))
        .collect();
    let per_layer = PER_LAYER.iter().map(|d| format!("{}}}", head(d))).collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        rows(workloads),
        rows(end_to_end),
        rows(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ok_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn ok_unit(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut seen = BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(ok_name(d.name), "bad name {}", d.name);
            assert!(ok_unit(d.unit), "bad unit {} of {}", d.unit, d.name);
            assert!(seen.insert(d.name), "{} is used twice", d.name);
        }
        assert!((2..=8).contains(&workloads::ALL.len()));
        for w in &workloads::ALL {
            assert!(ok_name(w.name) && seen.insert(w.name));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "why of {}",
                w.name
            );
        }
        for d in END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "bound of {}", d.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "setup_s takes the largest bound");
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn manifest_is_valid_json_with_exactly_the_contract_keys() {
        let doc = json::Json::parse(&manifest()).unwrap();
        let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(manifest().len() < 64 << 10);
        let e2e = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        let keys: Vec<&str> = e2e[0]
            .as_obj()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["better", "bound", "name", "unit"]);
    }
}
