//! pmemcpy-doctor — offline diagnosis of pool images.
//!
//! ```text
//! pmemcpy-doctor examine <image> [--profile <name>] [--json] [--timeline] [--expect pass|fail]
//! pmemcpy-doctor demo-clean --image <path> [--write-behind] [--json]
//! pmemcpy-doctor demo-crash --at <k> --image <path> [--write-behind] [--json]
//! ```
//!
//! `examine` opens an image read-only — the pool is never mounted, no
//! recovery runs — and prints geometry, histograms, pending WAL records,
//! the flight-recorder timeline, and an fsck-style verdict list, including
//! the device profile recorded in the superblock. `--profile` names the
//! device profile the image is expected to come from (default
//! `optane-gen1`); a superblock/profile mismatch is a FAIL verdict.
//!
//! The `demo-*` subcommands exist for CI and for exploring the tool: they
//! run one small workload (80 keys, a table that splits, then a clean
//! unmount), dump the image — as it ends, or as a power failure at the
//! workload's crash point `k` leaves it — then examine it. `--expect` turns
//! the overall verdict into the exit status (`demo-clean` defaults to
//! `pass`, `demo-crash` to `fail`).

use mpi_sim::{Comm, World};
use pmem_sim::{Machine, PersistenceMode, PmemDevice};
use pmemcpy::{MmapTarget, Options, Pmem};
use pmemcpy_bench::doctor::{diagnose, dump_image, load_image_on, render_json, render_text};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> String {
    "usage: pmemcpy-doctor examine <image> [--profile <name>] [--json] [--timeline] \
     [--expect pass|fail]\n\
     \x20      pmemcpy-doctor demo-clean --image <path> [--write-behind] [--json]\n\
     \x20      pmemcpy-doctor demo-crash --at <k> --image <path> [--write-behind] [--json]"
        .into()
}

struct Args {
    command: String,
    positional: Vec<String>,
    image: Option<String>,
    json: bool,
    timeline: bool,
    write_behind: bool,
    /// `demo-crash`'s crash point.
    at: Option<usize>,
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
        at: None,
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
            "--at" => {
                let k = it.next().ok_or("--at needs a crash point")?;
                a.at = Some(k.parse().map_err(|_| format!("--at {k}: not a number"))?);
            }
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

/// The demo workload on `dev`: mount a fresh pool, call `mounted`, store 80
/// keys and unmount cleanly.
fn run_demo<T>(
    dev: &Arc<PmemDevice>,
    write_behind: bool,
    mounted: impl FnOnce() -> T,
) -> Result<T, String> {
    let comm = Comm::new(World::new(Arc::clone(dev.machine()), 1), 0);
    let mut pmem = Pmem::with_options(demo_options(write_behind));
    pmem.mmap(MmapTarget::DevDax(dev), &comm)
        .map_err(|e| e.to_string())?;
    let out = mounted();
    store_keys(&pmem, 0, 80).map_err(|e| e.to_string())?;
    pmem.munmap().map_err(|e| e.to_string())?;
    Ok(out)
}

/// Build a pool, run the demo workload, dump the image.
fn demo_clean(a: &Args) -> Result<bool, String> {
    let path = a
        .image
        .as_deref()
        .ok_or("demo-clean needs --image <path>")?;
    let dev = PmemDevice::new(
        Machine::chameleon(),
        DEMO_DEVICE_BYTES,
        PersistenceMode::Fast,
    );
    run_demo(&dev, a.write_behind, || ())?;
    dump_image(&dev, path)?;
    eprintln!("pmemcpy-doctor: clean pool image written to {path}");
    examine(&dev, a.json, a.timeline)
}

/// Run the demo workload on a tracked device, keep the durable image at its
/// crash point `k` (counted from the mounted, empty pool: every flush and
/// every fence is one), dump that image and examine it.
fn demo_crash(a: &Args) -> Result<bool, String> {
    let k = a.at.ok_or("demo-crash needs --at <crash point>")?;
    let path = a
        .image
        .as_deref()
        .ok_or("demo-crash needs --image <path>")?;
    let machine = Machine::chameleon();
    let tracked = PmemDevice::new(
        Arc::clone(&machine),
        DEMO_DEVICE_BYTES,
        PersistenceMode::Tracked,
    );
    let crashed = run_demo(&tracked, a.write_behind, || tracked.crash_at(k))?;
    let (points, image) = crashed();
    let image = image.ok_or_else(|| format!("--at {k}: the workload has {points} crash points"))?;
    let dev = PmemDevice::new(machine, image.len(), PersistenceMode::Fast);
    dev.write_untimed(0, &image);
    dump_image(&dev, path)?;
    eprintln!("pmemcpy-doctor: pool image at crash point {k} of {points} written to {path}");
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
                Some(config) => load_image_on(path, Machine::new(config))
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
