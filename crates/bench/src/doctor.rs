//! The `pmemcpy-doctor` diagnosis engine: fsck-style verdicts over a raw
//! pool image, plus text/JSON rendering and image dump/load.
//!
//! The physical walks live in [`pmdk_sim::doctor`]; this module interprets
//! them — it knows the pMEMCPY conventions the pool layer does not (the
//! `\0wal` root key, the commit-group codec, what a clean shutdown looks
//! like in the flight ring) — and condenses everything into a PASS/FAIL
//! verdict list whose FAIL entries name the responsible subsystem.
//!
//! Nothing here mounts the pool: no recovery runs, nothing is written, so
//! examining a crashed image never destroys the evidence.

use pmdk_sim::doctor::{
    read_flight, read_lanes, root_hashtable_header, walk_hashtable, walk_heap, walk_log,
    HashtableReport, HeapReport, LaneSummary, LogReport,
};
use pmdk_sim::layout::{Superblock, POOL_MAGIC};
use pmem_sim::flight::{site_name, EventCode, FlightEvent};
use pmem_sim::trace::json_escape;
use pmem_sim::{Machine, PersistenceMode, PmemDevice};
use pmemcpy::write_behind::{describe_group, WAL_KEY};
use std::fmt::Write as _;
use std::sync::Arc;

/// One fsck-style check outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    Pass,
    /// Noteworthy but legal (e.g. a mid-split geometry after a clean
    /// unmount, or pending WAL records that will replay on the next mount).
    Info,
    Fail,
}

impl Status {
    pub fn as_str(self) -> &'static str {
        match self {
            Status::Pass => "PASS",
            Status::Info => "INFO",
            Status::Fail => "FAIL",
        }
    }
}

/// One named invariant check.
#[derive(Debug, Clone)]
pub struct Verdict {
    pub check: &'static str,
    pub status: Status,
    /// Which subsystem is implicated when the check does not pass
    /// ("pool", "tx", "heap", "ht", "wal").
    pub subsystem: &'static str,
    pub detail: String,
}

/// Everything the doctor learned from one image.
#[derive(Debug)]
pub struct Diagnosis {
    pub superblock: Superblock,
    pub lanes: LaneSummary,
    pub heap: HeapReport,
    pub hashtable: Option<HashtableReport>,
    pub wal: Option<LogReport>,
    /// Decoded pending WAL puts: (key, payload bytes) per record.
    pub wal_pending: Vec<Vec<(String, u64)>>,
    /// Keys with pending WAL updates whose durable copy is absent — the
    /// front-index state the next mount will reconstruct over the table.
    pub divergent_keys: Vec<String>,
    pub flight: Vec<FlightEvent>,
    pub verdicts: Vec<Verdict>,
}

impl Diagnosis {
    pub fn failed(&self) -> bool {
        self.verdicts.iter().any(|v| v.status == Status::Fail)
    }

    /// The fail-point event closest to the crash, if any.
    pub fn crash_site(&self) -> Option<&'static str> {
        self.flight
            .iter()
            .rev()
            .find(|e| e.event() == Some(EventCode::FailPoint))
            .and_then(|e| site_name(e.site))
    }
}

fn subsystem_of_site(site: &str) -> &'static str {
    match site.split("::").next() {
        Some("wal") => "wal",
        Some("ht") => "ht",
        Some("tx") => "tx",
        _ => "pool",
    }
}

/// Examine a raw image. `Err` means this is not a pool at all (garbage or
/// a hierarchical-files dataset — those live in a simulated FS, not a raw
/// pool namespace); any structural damage *inside* a real pool is reported
/// through verdicts instead.
pub fn diagnose(dev: &PmemDevice) -> Result<Diagnosis, String> {
    let sb = Superblock::read(dev);
    if sb.magic != POOL_MAGIC {
        return Err(format!(
            "not a pmemcpy pool image: superblock magic {:#x} (expected {POOL_MAGIC:#x})",
            sb.magic
        ));
    }
    let lanes = read_lanes(dev);
    let heap = walk_heap(dev);
    let flight = read_flight(dev);
    let hashtable = root_hashtable_header(dev, &sb).map(|h| walk_hashtable(dev, h));

    // The WAL roots itself under the reserved `\0wal` key.
    let wal = hashtable.as_ref().and_then(|ht| {
        let loc = ht.lookup(WAL_KEY)?;
        if loc.value_len != 16 {
            return None;
        }
        let bytes = dev.read_vec_untimed(loc.value_off as usize, 16);
        let header = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let ring = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        Some(walk_log(dev, header, ring))
    });

    let mut wal_pending = Vec::new();
    let mut wal_decode_errors = 0usize;
    if let Some(w) = &wal {
        for rec in &w.records {
            match describe_group(&rec.body) {
                Ok(puts) => wal_pending.push(puts),
                Err(_) => wal_decode_errors += 1,
            }
        }
    }
    let divergent_keys: Vec<String> = {
        let mut keys: Vec<String> = wal_pending
            .iter()
            .flatten()
            .map(|(k, _)| k.clone())
            .collect();
        keys.sort();
        keys.dedup();
        keys.retain(|k| {
            hashtable
                .as_ref()
                .is_none_or(|ht| ht.lookup(k.as_bytes()).is_none())
        });
        keys
    };

    let mut verdicts = Vec::new();
    fn push(
        verdicts: &mut Vec<Verdict>,
        check: &'static str,
        ok: bool,
        subsystem: &'static str,
        detail: String,
    ) {
        verdicts.push(Verdict {
            check,
            status: if ok { Status::Pass } else { Status::Fail },
            subsystem,
            detail,
        });
    }

    push(
        &mut verdicts,
        "superblock",
        sb.fault.is_none(),
        "pool",
        sb.fault.clone().unwrap_or_else(|| {
            format!(
                "magic ok, layout \"{}\", generation {}, {} bytes",
                sb.layout_name, sb.generation, sb.pool_size
            )
        }),
    );
    // The profile recorded at the last mount must be a known one and must
    // match the device this examination models — a mismatch means the image
    // is being read on (or was produced by) different modelled hardware.
    let examining = pmem_sim::profile::profile_id(dev.machine().profile_name());
    let profile_known = pmem_sim::profile::profile_name_by_id(sb.device_profile_id).is_some();
    push(
        &mut verdicts,
        "profile",
        profile_known && sb.device_profile_id == examining,
        "pool",
        if !profile_known {
            format!(
                "superblock records unknown device profile id {} \
                 (pre-profile pool or torn superblock)",
                sb.device_profile_id
            )
        } else if sb.device_profile_id != examining {
            format!(
                "superblock records profile \"{}\" but the image is examined as \"{}\"",
                sb.device_profile_name(),
                dev.machine().profile_name()
            )
        } else {
            format!(
                "device profile \"{}\", flush strategy {}",
                sb.device_profile_name(),
                sb.flush_strategy_name()
            )
        },
    );
    push(
        &mut verdicts,
        "lanes",
        lanes.all_idle(),
        "tx",
        if lanes.all_idle() {
            format!("{} lanes, all idle", pmdk_sim::layout::LANES)
        } else {
            let busy: Vec<String> = lanes
                .busy
                .iter()
                .map(|l| format!("lane {} {}", l.index, l.state_name()))
                .collect();
            let undecodable: String = lanes.errors.iter().map(|e| format!("; {e}")).collect();
            format!(
                "in-flight transaction(s) froze on the image: {}{undecodable}",
                busy.join(", ")
            )
        },
    );
    push(
        &mut verdicts,
        "heap",
        heap.ok(),
        "heap",
        if heap.ok() {
            format!(
                "{} blocks walk cleanly ({} live, {} free)",
                heap.blocks, heap.live_allocations, heap.free_blocks
            )
        } else {
            heap.errors.join("; ")
        },
    );

    if let Some(ht) = &hashtable {
        let (hdr, g) = (ht.header, ht.header.geo);
        push(
            &mut verdicts,
            "hashtable",
            ht.ok(),
            "ht",
            if ht.ok() {
                format!("{} buckets, {} reachable entries", g.buckets, ht.reachable)
            } else {
                ht.errors.join("; ")
            },
        );
        // A dirty count is legal mid-run; a clean flag with a mismatch is
        // structural damage.
        if hdr.dirty != 0 {
            verdicts.push(Verdict {
                check: "ht-count",
                status: Status::Info,
                subsystem: "ht",
                detail: format!(
                    "count fold pending (persisted {}, reachable {})",
                    hdr.count, ht.reachable
                ),
            });
        } else {
            push(
                &mut verdicts,
                "ht-count",
                hdr.count == ht.reachable,
                "ht",
                format!("persisted {} vs reachable {}", hdr.count, ht.reachable),
            );
        }
        if g.old_buckets != 0 {
            verdicts.push(Verdict {
                check: "ht-split",
                status: Status::Info,
                subsystem: "ht",
                detail: format!(
                    "incremental split in flight: {} -> {} buckets, cursor {}",
                    g.old_buckets, g.buckets, g.cursor
                ),
            });
        }
    }

    if let Some(w) = &wal {
        let intact = w.ok() && wal_decode_errors == 0;
        push(
            &mut verdicts,
            "wal",
            intact,
            "wal",
            if intact {
                format!(
                    "ring walks cleanly: {} committed record(s), head {} tail {}",
                    w.records.len(),
                    w.head,
                    w.tail
                )
            } else {
                let mut msgs = w.errors.clone();
                if wal_decode_errors > 0 {
                    msgs.push(format!("{wal_decode_errors} record(s) failed to decode"));
                }
                if w.records.iter().any(|r| !r.crc_ok) {
                    msgs.push("CRC mismatch on committed record".into());
                }
                msgs.join("; ")
            },
        );
        if !w.records.is_empty() {
            let puts: usize = wal_pending.iter().map(Vec::len).sum();
            verdicts.push(Verdict {
                check: "wal-pending",
                status: Status::Info,
                subsystem: "wal",
                detail: format!(
                    "{} record(s) / {} put(s) will replay on the next mount \
                     ({} key(s) not yet in the durable table)",
                    w.records.len(),
                    puts,
                    divergent_keys.len()
                ),
            });
        }
    }

    // The clean-shutdown witness: a cleanly unmapped pool always ends its
    // flight timeline with an Unmount event (recorded after the final drain
    // and count fold succeed).
    let last = flight.last().map(FlightEvent::event);
    let clean = last == Some(Some(EventCode::Unmount));
    if clean {
        verdicts.push(Verdict {
            check: "clean-shutdown",
            status: Status::Pass,
            subsystem: "pool",
            detail: "flight timeline ends with unmount".into(),
        });
    } else {
        let crash_site = flight
            .iter()
            .rev()
            .find(|e| e.event() == Some(EventCode::FailPoint))
            .and_then(|e| site_name(e.site));
        let (subsystem, detail) = match crash_site {
            Some(site) => (
                subsystem_of_site(site),
                format!("crash at fail point {site} (last fail-point event in the flight ring)"),
            ),
            None => (
                "pool",
                match flight.last() {
                    Some(e) => format!(
                        "pool was not cleanly unmounted; last flight event: {}",
                        e.label()
                    ),
                    None => "pool was not cleanly unmounted; flight ring is empty".into(),
                },
            ),
        };
        verdicts.push(Verdict {
            check: "clean-shutdown",
            status: Status::Fail,
            subsystem,
            detail,
        });
    }

    Ok(Diagnosis {
        superblock: sb,
        lanes,
        heap,
        hashtable,
        wal,
        wal_pending,
        divergent_keys,
        flight,
        verdicts,
    })
}

/// Human-readable report: geometry, histograms, WAL decode, verdicts, and
/// (optionally) the full flight timeline.
pub fn render_text(d: &Diagnosis, timeline: bool) -> String {
    let mut out = String::new();
    let sb = &d.superblock;
    let _ = writeln!(out, "== superblock ==");
    let _ = writeln!(
        out,
        "layout \"{}\"  generation {}  pool {} bytes  heap at {:#x}",
        sb.layout_name, sb.generation, sb.pool_size, sb.heap_start
    );
    let _ = writeln!(
        out,
        "device profile \"{}\"  put flush strategy {}",
        sb.device_profile_name(),
        sb.flush_strategy_name()
    );
    let _ = writeln!(
        out,
        "lanes: {} idle / {} active / {} committing",
        d.lanes.idle, d.lanes.active, d.lanes.committing
    );
    for l in &d.lanes.busy {
        let _ = writeln!(
            out,
            "  lane {:2} {:<10} undo {} bytes, {} intents",
            l.index,
            l.state_name(),
            l.undo_len,
            l.intent_count
        );
    }
    let _ = writeln!(
        out,
        "heap: {} blocks, {} live ({} B), {} free ({} B, largest {})",
        d.heap.blocks,
        d.heap.live_allocations,
        d.heap.allocated_bytes,
        d.heap.free_blocks,
        d.heap.free_bytes,
        d.heap.largest_free_block
    );

    if let Some(ht) = &d.hashtable {
        let (hdr, g) = (ht.header, ht.header.geo);
        let _ = writeln!(out, "\n== hashtable ==");
        let _ = writeln!(
            out,
            "header {:#x}: {} buckets, persisted count {}{}, {} reachable",
            ht.header_off,
            g.buckets,
            hdr.count,
            if hdr.dirty != 0 { " (dirty)" } else { "" },
            ht.reachable
        );
        if g.old_buckets != 0 {
            let _ = writeln!(
                out,
                "mid-split: old table {} buckets at {:#x}, cursor {} ({} buckets migrated)",
                g.old_buckets, g.old_heads, g.cursor, g.cursor
            );
        }
        let _ = writeln!(out, "chain-length histogram (len: buckets):");
        for (len, n) in ht.chain_histogram.iter().enumerate() {
            if *n > 0 {
                let _ = writeln!(out, "  {len:3}: {n}");
            }
        }
        let busiest = ht
            .stripes
            .iter()
            .enumerate()
            .max_by_key(|(_, s)| s.longest_chain);
        if let Some((sid, s)) = busiest {
            let _ = writeln!(
                out,
                "stripes: {} total; busiest stripe {} holds {} entries (longest chain {})",
                ht.stripes.len(),
                sid,
                s.entries,
                s.longest_chain
            );
        }
    }

    if let Some(w) = &d.wal {
        let _ = writeln!(out, "\n== write-ahead log ==");
        let _ = writeln!(
            out,
            "capacity {}  head {}  tail {}  {} committed record(s)",
            w.capacity,
            w.head,
            w.tail,
            w.records.len()
        );
        for (i, puts) in d.wal_pending.iter().enumerate() {
            let rendered: Vec<String> = puts
                .iter()
                .map(|(k, len)| format!("{k} ({len} B)"))
                .collect();
            let _ = writeln!(out, "  record {i}: {}", rendered.join(", "));
        }
        if !d.divergent_keys.is_empty() {
            let _ = writeln!(
                out,
                "front-index divergence: {} pending key(s) absent from the durable table: {}",
                d.divergent_keys.len(),
                d.divergent_keys.join(", ")
            );
        }
    }

    let _ = writeln!(out, "\n== flight recorder ==");
    let _ = writeln!(out, "{} event(s) in the ring", d.flight.len());
    if timeline {
        for e in &d.flight {
            let _ = writeln!(
                out,
                "  #{:<6} t={:>12}ns lane {:<3} {}",
                e.seq,
                e.time_ns,
                e.lane,
                e.label()
            );
        }
    } else if let Some(e) = d.flight.last() {
        let _ = writeln!(out, "last event: {} (seq {})", e.label(), e.seq);
    }

    let _ = writeln!(out, "\n== verdicts ==");
    for v in &d.verdicts {
        let _ = writeln!(
            out,
            "{:4} {:<16} [{}] {}",
            v.status.as_str(),
            v.check,
            v.subsystem,
            v.detail
        );
    }
    let _ = writeln!(
        out,
        "\noverall: {}",
        if d.failed() { "FAIL" } else { "PASS" }
    );
    out
}

/// Machine-readable report (stable field names; CI artifacts).
pub fn render_json(d: &Diagnosis) -> String {
    let mut out = String::from("{\n");
    let sb = &d.superblock;
    let _ = writeln!(
        out,
        "  \"layout\": \"{}\",\n  \"generation\": {},\n  \"pool_size\": {},",
        json_escape(&sb.layout_name),
        sb.generation,
        sb.pool_size
    );
    let _ = writeln!(
        out,
        "  \"device_profile\": \"{}\",\n  \"flush_strategy\": \"{}\",",
        json_escape(sb.device_profile_name()),
        json_escape(sb.flush_strategy_name())
    );
    let _ = writeln!(
        out,
        "  \"lanes\": {{\"idle\": {}, \"active\": {}, \"committing\": {}}},",
        d.lanes.idle, d.lanes.active, d.lanes.committing
    );
    let _ = writeln!(
        out,
        "  \"heap\": {{\"blocks\": {}, \"live\": {}, \"allocated_bytes\": {}, \
         \"free_bytes\": {}, \"errors\": {}}},",
        d.heap.blocks,
        d.heap.live_allocations,
        d.heap.allocated_bytes,
        d.heap.free_bytes,
        d.heap.errors.len()
    );
    if let Some(ht) = &d.hashtable {
        let (hdr, g) = (ht.header, ht.header.geo);
        let _ = writeln!(
            out,
            "  \"hashtable\": {{\"buckets\": {}, \"persisted_count\": {}, \
             \"count_dirty\": {}, \"reachable\": {}, \"mid_split\": {}, \
             \"cursor\": {}, \"chain_histogram\": [{}]}},",
            g.buckets,
            hdr.count,
            hdr.dirty != 0,
            ht.reachable,
            g.old_buckets != 0,
            g.cursor,
            ht.chain_histogram
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",")
        );
    }
    if let Some(w) = &d.wal {
        let _ = writeln!(
            out,
            "  \"wal\": {{\"capacity\": {}, \"head\": {}, \"tail\": {}, \
             \"pending_records\": {}, \"divergent_keys\": {}}},",
            w.capacity,
            w.head,
            w.tail,
            w.records.len(),
            d.divergent_keys.len()
        );
    }
    let _ = writeln!(
        out,
        "  \"flight_events\": {},\n  \"last_event\": \"{}\",",
        d.flight.len(),
        json_escape(&d.flight.last().map(|e| e.label()).unwrap_or_default())
    );
    if let Some(site) = d.crash_site() {
        let _ = writeln!(out, "  \"crash_site\": \"{}\",", json_escape(site));
    }
    out.push_str("  \"verdicts\": [\n");
    for (i, v) in d.verdicts.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"check\": \"{}\", \"status\": \"{}\", \"subsystem\": \"{}\", \
             \"detail\": \"{}\"}}{}",
            json_escape(v.check),
            v.status.as_str(),
            v.subsystem,
            json_escape(&v.detail),
            if i + 1 < d.verdicts.len() { "," } else { "" }
        );
    }
    let _ = write!(
        out,
        "  ],\n  \"overall\": \"{}\"\n}}\n",
        if d.failed() { "FAIL" } else { "PASS" }
    );
    out
}

/// Dump the device's current (post-crash: durable) contents as a raw image
/// file. The superblock makes the format self-describing.
pub fn dump_image(dev: &PmemDevice, path: &str) -> Result<(), String> {
    let bytes = dev.read_vec_untimed(0, dev.size());
    std::fs::write(path, bytes).map_err(|e| format!("{path}: {e}"))
}

/// Load a raw image into a fresh device for read-only examination. The
/// device is never mounted, so the machine attached to it is inert.
pub fn load_image(path: &str) -> Result<Arc<PmemDevice>, String> {
    load_image_on(path, Machine::chameleon())
}

/// [`load_image`] on an explicit machine — the doctor's `--profile` flag,
/// so the profile verdict compares the image against the device profile the
/// operator says it came from.
pub fn load_image_on(path: &str, machine: Arc<Machine>) -> Result<Arc<PmemDevice>, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.len() < pmdk_sim::layout::min_pool_size() as usize {
        return Err(format!(
            "{path}: {} bytes is smaller than any pool ({} minimum)",
            bytes.len(),
            pmdk_sim::layout::min_pool_size()
        ));
    }
    let dev = PmemDevice::new(machine, bytes.len(), PersistenceMode::Fast);
    dev.write_untimed(0, &bytes);
    Ok(dev)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_sim::{Comm, World};
    use pmemcpy::{MmapTarget, Pmem};

    fn clean_pool() -> Arc<PmemDevice> {
        let machine = Machine::chameleon();
        let dev = PmemDevice::new(Arc::clone(&machine), 16 << 20, PersistenceMode::Fast);
        let comm = Comm::new(World::new(machine, 1), 0);
        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
        pmem.store_scalar("answer", 42u64).unwrap();
        pmem.munmap().unwrap();
        dev
    }

    #[test]
    fn clean_pool_passes_every_verdict() {
        let dev = clean_pool();
        let d = diagnose(&dev).unwrap();
        assert!(!d.failed(), "{}", render_text(&d, true));
        assert!(d
            .verdicts
            .iter()
            .any(|v| v.check == "clean-shutdown" && v.status == Status::Pass));
    }

    #[test]
    fn garbage_is_rejected_as_not_a_pool() {
        let dev = PmemDevice::new(Machine::chameleon(), 1 << 20, PersistenceMode::Fast);
        assert!(diagnose(&dev).unwrap_err().contains("not a pmemcpy pool"));
    }

    #[test]
    fn image_round_trips_through_a_file() {
        let dev = clean_pool();
        let path = std::env::temp_dir().join("pmemcpy-doctor-roundtrip.img");
        let path = path.to_str().unwrap();
        dump_image(&dev, path).unwrap();
        let loaded = load_image(path).unwrap();
        let d = diagnose(&loaded).unwrap();
        assert!(!d.failed(), "{}", render_text(&d, true));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn renders_are_well_formed() {
        let dev = clean_pool();
        let d = diagnose(&dev).unwrap();
        let text = render_text(&d, true);
        for needle in ["== superblock ==", "== verdicts ==", "overall: PASS"] {
            assert!(text.contains(needle), "missing {needle}:\n{text}");
        }
        let json = crate::json::Json::parse(&render_json(&d)).expect("doctor JSON parses");
        assert_eq!(json.get("overall").and_then(|j| j.as_str()), Some("PASS"));
        assert!(json.get("verdicts").and_then(|j| j.as_arr()).is_some());
    }
}
