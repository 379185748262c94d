//! Per-layer numbers from what the crates already export: the phase totals,
//! counters and histograms of a `MetricsRegistry` installed for one traced
//! iteration, the machine's `StatsSnapshot`, and the harness spans.
//!
//! Phase labels belong to layers through one table, [`layer_of`]. Phase time
//! is attributed innermost-label-wins, each charged nanosecond exactly once,
//! so the labels of a rank lane tile that rank's timeline:
//! `core.tiling_residual_ns` is the difference and must be 0.

use crate::defs;
use crate::spans::{Call, Span};
use crate::stats::{self, ratio};
use crate::workloads::Iteration;
use pmem_sim::{MetricsSnapshot, CKPT_LANE, DRAIN_LANE};
use std::collections::BTreeMap;

/// Collected per-layer values, by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<String, f64>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            defs::per_layer(name).is_some(),
            "{name} is not a declared per-layer metric"
        );
        self.0.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// Declared metrics nobody set (a bug in the benchmark: every traced run
    /// reports every per-layer metric).
    pub fn missing(&self) -> Vec<&'static str> {
        defs::PER_LAYER
            .iter()
            .map(|d| d.name)
            .filter(|n| !self.0.contains_key(*n))
            .collect()
    }
}

/// The crate that owns a phase label. Labels are the product's; the table is
/// the benchmark's, until labels carry their layer themselves.
pub fn layer_of(label: &str) -> &'static str {
    // `put.serialize`, `get.deserialize` and the baselines' bare `serialize`
    // are format work, whoever called it.
    if label.ends_with("serialize") {
        "pserial"
    } else if ["tx.", "ht.", "pool."].iter().any(|p| label.starts_with(p)) {
        "pmdk_sim"
    } else if label.starts_with("mpi.") || label == "barrier" || label == "net.send" {
        "mpi_sim"
    } else if ["put.", "get.", "wal.", "ckpt."]
        .iter()
        .any(|p| label.starts_with(p))
    {
        "core"
    } else if label == "stage" || label == "rearrange" {
        "baselines"
    } else {
        // A primitive's own name (`pmem.*`, `flush`, `fence`, `page_fault`,
        // `syscall`, `dram.copy`, `index.probe`): charged outside any phase
        // scope.
        "pmem_sim"
    }
}

fn is_rank_lane(lane: u64) -> bool {
    lane != CKPT_LANE && lane != DRAIN_LANE
}

/// Virtual seconds of the labels `pick` selects, summed over rank lanes.
fn phase_s(snap: &MetricsSnapshot, pick: impl Fn(&str) -> bool) -> f64 {
    let ns: u64 = snap
        .phases
        .iter()
        .filter(|((lane, label), _)| is_rank_lane(*lane) && pick(label))
        .map(|(_, t)| t.as_nanos())
        .sum();
    ns as f64 / 1e9
}

/// Virtual seconds of the named primitives' histograms (all lanes).
fn prim_s(snap: &MetricsSnapshot, names: &[&str]) -> f64 {
    let ns: u64 = names
        .iter()
        .filter_map(|n| snap.hists.get(*n))
        .map(|h| h.sum.as_nanos())
        .sum();
    ns as f64 / 1e9
}

/// The (C) metrics: counters and phase totals of the traced iteration.
pub fn counters(it: &Iteration, v: &mut Values) {
    let empty = MetricsSnapshot::default();
    let snap = it.metrics.as_ref().unwrap_or(&empty);
    let s = &it.stats;

    v.set("pmem_sim.bytes_written", s.pmem_bytes_written as f64);
    v.set("pmem_sim.bytes_read", s.pmem_bytes_read as f64);
    v.set("pmem_sim.flush_calls", s.flush_calls as f64);
    v.set("pmem_sim.fences", s.fences as f64);
    v.set("pmem_sim.page_faults", s.page_faults as f64);
    v.set("pmem_sim.data_write.sim_s", prim_s(snap, &["pmem.write"]));
    v.set("pmem_sim.data_read.sim_s", prim_s(snap, &["pmem.read"]));
    v.set(
        "pmem_sim.meta.sim_s",
        prim_s(snap, &["pmem.meta_write", "pmem.meta_read"]),
    );
    v.set(
        "pmem_sim.flush_fence.sim_s",
        prim_s(snap, &["flush", "ntstore", "fence"]),
    );
    v.set("pmem_sim.page_fault.sim_s", prim_s(snap, &["page_fault"]));

    v.set("pmdk_sim.pool_txs", s.pool_txs as f64);
    v.set("pmdk_sim.alloc_passes", s.alloc_passes as f64);
    v.set(
        "pmdk_sim.tx_undo_bytes",
        snap.counter("tx.undo_bytes") as f64,
    );
    v.set("pmdk_sim.ht_splits", snap.counter("ht.splits") as f64);
    v.set(
        "pmdk_sim.ht_entries_migrated",
        snap.counter("ht.entries_migrated") as f64,
    );
    v.set(
        "pmdk_sim.ht_chain_max",
        snap.hists
            .get("ht.chain_len")
            .map_or(0, |h| h.max.as_nanos()) as f64,
    );
    let (hits, misses) = (snap.counter("shadow.hits"), snap.counter("shadow.misses"));
    v.set("pmdk_sim.shadow_hit_ratio", ratio(hits, hits + misses));
    v.set(
        "pmdk_sim.pool_reads_per_get",
        ratio(snap.counter("get.lookup.pool_reads"), hits + misses),
    );
    v.set(
        "pmdk_sim.seqlock_retries",
        snap.counter("ht.seqlock.retries") as f64,
    );
    v.set("pmdk_sim.tx.sim_s", phase_s(snap, |l| l.starts_with("tx.")));
    v.set(
        "pmdk_sim.ht_resize.sim_s",
        phase_s(snap, |l| l == "ht.resize"),
    );

    v.set(
        "pserial.serialize.sim_s",
        phase_s(snap, |l| layer_of(l) == "pserial"),
    );
    v.set("simfs.syscalls", s.syscalls as f64);
    v.set("mpi_sim.wait.sim_s", phase_s(snap, |l| l == "mpi.wait"));

    for (metric, label) in [
        ("core.put_reserve.sim_s", "put.reserve"),
        ("core.put_memcpy.sim_s", "put.memcpy"),
        ("core.put_persist.sim_s", "put.persist"),
        ("core.get_memcpy.sim_s", "get.memcpy"),
        ("core.wal_append.sim_s", "wal.append"),
    ] {
        v.set(metric, phase_s(snap, |l| l == label));
    }
    v.set(
        "core.get_lookup.sim_s",
        phase_s(snap, |l| l.starts_with("get.lookup")),
    );
    v.set(
        "core.ckpt_lane.sim_s",
        snap.lane_total(CKPT_LANE).as_nanos() as f64 / 1e9,
    );
    v.set(
        "core.unattributed.sim_s",
        phase_s(snap, |l| layer_of(l) == "pmem_sim"),
    );
    let lanes_ns: u64 = it.rank_end_ns.iter().sum();
    let tiled_ns: u64 = (0..it.rank_end_ns.len() as u64)
        .map(|lane| snap.lane_total(lane).as_nanos())
        .sum();
    v.set("core.lanes.sim_s", lanes_ns as f64 / 1e9);
    v.set(
        "core.tiling_residual_ns",
        lanes_ns.abs_diff(tiled_ns) as f64,
    );
    for (metric, counter) in [
        ("core.wal_appends", "wal.appends"),
        ("core.wal_bypass", "wal.bypass"),
        ("core.ckpt_drains", "ckpt.drains"),
        ("core.front_hits", "wb.front_hits"),
        ("core.put_logical_bytes", "put.logical_bytes"),
        ("core.put_media_bytes", "put.media_bytes"),
    ] {
        v.set(metric, snap.counter(counter) as f64);
    }
    v.set("workloads.generate.host_s", it.generate_host_s);
    v.set("workloads.verify.host_s", it.verify_host_s);
}

/// The (S) metrics: host and virtual time of the harness's calls into
/// `core`. Under the deterministic scheduler one thread runs at a time, so on
/// a multi-rank world a call's host span includes the time its rank sat
/// parked while the token was elsewhere.
pub fn span_metrics(spans: &[Span], reopen_mmap_sim_ns: u64, v: &mut Values) {
    let of = |call: Call, f: fn(&Span) -> u64| -> Vec<u64> {
        spans.iter().filter(|s| s.call == call).map(f).collect()
    };
    let p50_us = |xs: &[u64]| {
        if xs.is_empty() {
            0.0
        } else {
            stats::p50(xs) as f64 / 1e3
        }
    };
    let tail_us = |xs: &[u64]| {
        if xs.is_empty() {
            0.0
        } else {
            stats::tail(xs).value as f64 / 1e3
        }
    };
    v.set("core.mmap.host_us", p50_us(&of(Call::Mmap, Span::host_ns)));
    v.set("core.mmap.sim_us", p50_us(&of(Call::Mmap, Span::sim_ns)));
    v.set(
        "core.put.host_us_p50",
        p50_us(&of(Call::Put, Span::host_ns)),
    );
    v.set(
        "core.put.host_us_tail",
        tail_us(&of(Call::Put, Span::host_ns)),
    );
    v.set(
        "core.get.host_us_p50",
        p50_us(&of(Call::Get, Span::host_ns)),
    );
    v.set(
        "core.get.host_us_tail",
        tail_us(&of(Call::Get, Span::host_ns)),
    );
    v.set(
        "core.remove.host_us_p50",
        p50_us(&of(Call::Remove, Span::host_ns)),
    );
    v.set(
        "core.munmap.host_us",
        p50_us(&of(Call::Munmap, Span::host_ns)),
    );
    v.set(
        "core.munmap.sim_us",
        p50_us(&of(Call::Munmap, Span::sim_ns)),
    );
    v.set("core.reopen_mmap.sim_us", reopen_mmap_sim_ns as f64 / 1e3);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_map_to_their_crates() {
        for (label, layer) in [
            ("pmem.write", "pmem_sim"),
            ("pmem.meta_read", "pmem_sim"),
            ("fence", "pmem_sim"),
            ("syscall", "pmem_sim"),
            ("tx.begin", "pmdk_sim"),
            ("tx.commit", "pmdk_sim"),
            ("ht.resize", "pmdk_sim"),
            ("pool.alloc", "pmdk_sim"),
            ("mpi.wait", "mpi_sim"),
            ("barrier", "mpi_sim"),
            ("net.send", "mpi_sim"),
            ("put.reserve", "core"),
            ("put.memcpy", "core"),
            ("get.lookup.cached", "core"),
            ("get.front", "core"),
            ("wal.append", "core"),
            ("ckpt.drain", "core"),
            ("put.serialize", "pserial"),
            ("get.deserialize", "pserial"),
            ("serialize", "pserial"),
            ("stage", "baselines"),
            ("rearrange", "baselines"),
        ] {
            assert_eq!(layer_of(label), layer, "{label}");
        }
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn undeclared_names_are_refused() {
        Values::default().set("core.made_up", 1.0);
    }
}
