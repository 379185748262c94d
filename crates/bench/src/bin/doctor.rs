//! pmemcpy-doctor — offline diagnosis of pool images.
//!
//! ```text
//! pmemcpy-doctor examine <image> [--profile <name>] [--json] [--timeline] [--expect pass|fail]
//! pmemcpy-doctor demo-clean --image <path> [--write-behind] [--json]
//! pmemcpy-doctor demo-crash <site> --image <path> [--json]
//! ```
//!
//! `examine` opens an image read-only — the pool is never mounted, no
//! recovery runs — and prints geometry, histograms, pending WAL records,
//! the flight-recorder timeline, and an fsck-style verdict list, including
//! the device profile and autotuned flush strategy recorded in the
//! superblock. `--profile` names the device profile the image is expected
//! to come from (default `optane-gen1`); a superblock/profile mismatch is
//! a FAIL verdict.
//!
//! The `demo-*` subcommands exist for CI and for exploring the tool: they
//! build a small pool (cleanly unmounted, or crashed at a named fail site),
//! dump its image, then examine it. `--expect` turns the overall verdict
//! into the exit status (`demo-clean` defaults to `pass`, `demo-crash` to
//! `fail`).

use mpi_sim::{Comm, World};
use pmem_sim::{Machine, PersistenceMode, PmemDevice};
use pmemcpy::{registry, MmapTarget, Options, Pmem};
use pmemcpy_bench::doctor::{diagnose, dump_image, load_image_on, render_json, render_text};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> String {
    "usage: pmemcpy-doctor examine <image> [--profile <name>] [--json] [--timeline] \
     [--expect pass|fail]\n\
     \x20      pmemcpy-doctor demo-clean --image <path> [--write-behind] [--json]\n\
     \x20      pmemcpy-doctor demo-crash <site> --image <path> [--json]\n\
     sites: wal::append wal::ckpt-drain wal::truncate wal::replay \
     ht::migrate ht::cursor-advance ht::count-fold (and the tx::* sites)"
        .into()
}

struct Args {
    command: String,
    positional: Vec<String>,
    image: Option<String>,
    json: bool,
    timeline: bool,
    write_behind: bool,
    expect: Option<String>,
    profile: String,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or_else(usage)?;
    let mut a = Args {
        command,
        positional: vec![],
        image: None,
        json: false,
        timeline: false,
        write_behind: false,
        expect: None,
        profile: "optane-gen1".into(),
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => a.json = true,
            "--timeline" => a.timeline = true,
            "--write-behind" => a.write_behind = true,
            "--image" => a.image = Some(it.next().ok_or("--image needs a path")?),
            "--profile" => a.profile = it.next().ok_or("--profile needs a name")?,
            "--expect" => {
                let v = it.next().ok_or("--expect needs pass|fail")?;
                if v != "pass" && v != "fail" {
                    return Err(format!("--expect {v}: must be pass or fail"));
                }
                a.expect = Some(v);
            }
            "--help" | "-h" => return Err(usage()),
            other => a.positional.push(other.to_string()),
        }
    }
    Ok(a)
}

/// Examine a loaded device; print the report; return the overall verdict
/// (`true` = every check passed).
fn examine(dev: &PmemDevice, json: bool, timeline: bool) -> Result<bool, String> {
    let d = diagnose(dev)?;
    if json {
        print!("{}", render_json(&d));
    } else {
        print!("{}", render_text(&d, timeline));
    }
    Ok(!d.failed())
}

fn verdict_to_exit(passed: bool, expect: Option<&str>) -> ExitCode {
    let want_pass = !matches!(expect, Some("fail"));
    if passed == want_pass {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "pmemcpy-doctor: overall verdict {} but expected {}",
            if passed { "PASS" } else { "FAIL" },
            if want_pass { "PASS" } else { "FAIL" }
        );
        ExitCode::FAILURE
    }
}

const DEMO_DEVICE_BYTES: usize = 16 << 20;

fn demo_options(write_behind: bool) -> Options {
    let mut opts = if write_behind {
        Options::write_behind()
    } else {
        Options::default()
    };
    // Small enough that the demo workloads exercise splits quickly.
    opts.hashtable_buckets = 64;
    opts
}

fn store_keys(pmem: &Pmem, from: u64, to: u64) -> pmemcpy::Result<()> {
    for i in from..to {
        pmem.store_scalar(&format!("key{i}"), i)?;
    }
    Ok(())
}

/// Build a pool, run a small workload, unmount cleanly, dump the image.
fn demo_clean(a: &Args) -> Result<bool, String> {
    let path = a
        .image
        .as_deref()
        .ok_or("demo-clean needs --image <path>")?;
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(
        Arc::clone(&machine),
        DEMO_DEVICE_BYTES,
        PersistenceMode::Fast,
    );
    let comm = Comm::new(World::new(machine, 1), 0);
    let mut pmem = Pmem::with_options(demo_options(a.write_behind));
    pmem.mmap(MmapTarget::DevDax(&dev), &comm)
        .map_err(|e| e.to_string())?;
    store_keys(&pmem, 0, 80).map_err(|e| e.to_string())?;
    pmem.munmap().map_err(|e| e.to_string())?;
    dump_image(&dev, path)?;
    eprintln!("pmemcpy-doctor: clean pool image written to {path}");
    examine(&dev, a.json, a.timeline)
}

/// Build a pool, arm `site`, drive the workload into the injected crash,
/// power-fail the device, dump the durable image.
fn demo_crash(a: &Args) -> Result<bool, String> {
    let site_arg = a
        .positional
        .first()
        .ok_or("demo-crash needs a fail-site argument")?;
    let path = a
        .image
        .as_deref()
        .ok_or("demo-crash needs --image <path>")?;
    // Resolve through the registry: arming wants the canonical &'static str.
    let site: &'static str = pmem_sim::flight::site_name(pmem_sim::flight::site_id(site_arg))
        .ok_or_else(|| {
            format!(
                "unknown fail site {site_arg:?}; known: {}",
                pmem_sim::flight::FAIL_SITES.join(" ")
            )
        })?;
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(
        Arc::clone(&machine),
        DEMO_DEVICE_BYTES,
        PersistenceMode::Tracked,
    );
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let opts = demo_options(site.starts_with("wal::"));
    let mut pmem = Pmem::with_options(opts.clone());
    pmem.mmap(MmapTarget::DevDax(&dev), &comm)
        .map_err(|e| e.to_string())?;
    let shared = registry::shared_pool(&comm.clock_arc(), &dev, "pmemcpy", opts.hashtable_buckets)
        .map_err(|e| e.to_string())?;

    let fired = |r: Result<(), pmemcpy::PmemCpyError>| -> Result<(), String> {
        match r {
            Err(_) => Ok(()),
            Ok(()) => Err(format!(
                "fail site {site} armed but the workload never hit it"
            )),
        }
    };
    match site {
        "wal::append" => {
            store_keys(&pmem, 0, 8).map_err(|e| e.to_string())?;
            shared.pool.fail_points.arm(site, 1);
            fired(store_keys(&pmem, 8, 9))?;
        }
        "wal::ckpt-drain" | "wal::truncate" => {
            store_keys(&pmem, 0, 8).map_err(|e| e.to_string())?;
            shared.pool.fail_points.arm(site, 1);
            fired(pmem.checkpoint().map(|_| ()))?;
        }
        "wal::replay" => {
            // Leave committed records in the WAL, power-fail, then crash
            // *during recovery* on the remount.
            store_keys(&pmem, 0, 8).map_err(|e| e.to_string())?;
            dev.crash();
            drop(pmem);
            drop(shared);
            registry::release_pool(&dev);
            let reopened = registry::shared_pool(
                &pmem_sim::Clock::new(),
                &dev,
                "pmemcpy",
                opts.hashtable_buckets,
            )
            .map_err(|e| e.to_string())?;
            reopened.pool.fail_points.arm(site, 1);
            let mut doomed = Pmem::with_options(opts.clone());
            fired(doomed.mmap(MmapTarget::DevDax(&dev), &comm))?;
            dev.crash();
            drop(doomed);
            drop(reopened);
            registry::release_pool(&dev);
            dump_image(&dev, path)?;
            eprintln!("pmemcpy-doctor: crashed pool image ({site}) written to {path}");
            return examine(&dev, a.json, a.timeline);
        }
        "ht::count-fold" => {
            store_keys(&pmem, 0, 8).map_err(|e| e.to_string())?;
            shared.pool.fail_points.arm(site, 1);
            fired(pmem.munmap())?;
        }
        _ => {
            // Split sites and the tx sites: grow the table toward a split,
            // arm, then keep inserting until the armed site fires.
            store_keys(&pmem, 0, 30).map_err(|e| e.to_string())?;
            shared.pool.fail_points.arm(site, 1);
            let mut hit = false;
            for i in 30..300 {
                if store_keys(&pmem, i, i + 1).is_err() {
                    hit = true;
                    break;
                }
            }
            if !hit {
                return Err(format!("fail site {site} never fired within 300 inserts"));
            }
        }
    }
    dev.crash();
    drop(pmem);
    drop(shared);
    registry::release_pool(&dev);
    dump_image(&dev, path)?;
    eprintln!("pmemcpy-doctor: crashed pool image ({site}) written to {path}");
    examine(&dev, a.json, a.timeline)
}

fn main() -> ExitCode {
    let a = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match a.command.as_str() {
        "examine" => {
            let Some(path) = a.positional.first() else {
                eprintln!("{}", usage());
                return ExitCode::FAILURE;
            };
            match pmem_sim::profile::by_name(&a.profile) {
                Some(p) => load_image_on(path, Machine::new(p.config()))
                    .and_then(|dev| examine(&dev, a.json, a.timeline)),
                None => Err(format!(
                    "unknown device profile {:?}; valid profiles: {}",
                    a.profile,
                    pmem_sim::profile::profile_names().join(", ")
                )),
            }
        }
        "demo-clean" => demo_clean(&a),
        "demo-crash" => demo_crash(&a),
        _ => {
            eprintln!("{}", usage());
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(passed) => {
            let default_expect = match a.command.as_str() {
                "demo-crash" => Some("fail"),
                "demo-clean" => Some("pass"),
                _ => None,
            };
            verdict_to_exit(passed, a.expect.as_deref().or(default_expect))
        }
        Err(e) => {
            eprintln!("pmemcpy-doctor: {e}");
            ExitCode::from(2)
        }
    }
}
