//! Regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--bytes <MB>] [--procs 8,16,24,32,48] [--profile <name>] <command>
//!
//! commands:
//!   fig6               Figure 6: write performance sweep
//!   fig6-wb            Figure 6 ablation: write-behind WAL puts vs inline
//!   fig7               Figure 7: read performance sweep
//!   api                §3 API-complexity table
//!   machine            §4 testbed / PMEM-emulation constants
//!   ablate-serializer  store/load cost per serialization backend
//!   ablate-layout      hashtable vs hierarchical layout
//!   ablate-staging     direct-to-PMEM vs DRAM-staged serialization
//!   ablate-fill        NetCDF fill vs NC_NOFILL
//!   creation-storm     metadata storm: 8 ranks minting fresh keys; gates
//!                      the resizable-hashtable chain-length bound
//!   sweep-profiles     device-profile x flush-strategy grid: autotuned vs
//!                      pinned clwb/ntstore per profile; gates that the
//!                      autotuner always matches the best pinned strategy
//!   all                everything above; CSVs land in results/
//! ```
//!
//! `--storm-keys <N>` sets keys-per-rank for `creation-storm` (default
//! 131072, i.e. ~1M keys across the 8 ranks).
//!
//! `--profile <name>` selects the modelled device profile (default
//! `optane-gen1`, the paper's testbed; see `pmem_sim::profile`). Unknown
//! names exit nonzero listing the valid profiles. `--profiles <a,b,...>`
//! sets the grid for `sweep-profiles` (default: every built-in profile).
//!
//! Modelled volumes are always the paper's 40 GB; `--bytes` sets the *real*
//! backing volume (default 64 MB), with the machine's `byte_scale` making up
//! the difference.

use baselines::{Netcdf4Like, PioLibrary, PmemcpyLib, Target};
use pmem_sim::MachineConfig;
use pmemcpy::{DataLayout, Options};
use pmemcpy_bench::{
    api_complexity, check_fig6_shape, check_fig7_shape, render_checks, render_phase_breakdown,
    render_waterfall, run_cell, run_cell_traced, run_figure_reported_on, CellConfig, Direction,
    PAPER_PROCS,
};

/// Resolve a device-profile name or exit nonzero listing the valid ones.
fn resolve_profile(name: &str) -> &'static dyn pmem_sim::DeviceProfile {
    match pmem_sim::profile::by_name(name) {
        Some(p) => p,
        None => {
            eprintln!(
                "figures: unknown device profile {name:?}; valid profiles: {}",
                pmem_sim::profile::profile_names().join(", ")
            );
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut bytes_mb = 64u64;
    let mut procs: Vec<u64> = PAPER_PROCS.to_vec();
    let mut storm_keys = 131_072u64;
    let mut profile_name = "optane-gen1".to_string();
    let mut profile_list: Vec<String> = pmem_sim::profile::profile_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut commands = vec![];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--bytes" => {
                bytes_mb = it
                    .next()
                    .expect("--bytes <MB>")
                    .parse()
                    .expect("numeric MB")
            }
            "--procs" => {
                procs = it
                    .next()
                    .expect("--procs list")
                    .split(',')
                    .map(|s| s.parse().expect("numeric proc count"))
                    .collect()
            }
            "--storm-keys" => {
                storm_keys = it
                    .next()
                    .expect("--storm-keys <N>")
                    .parse()
                    .expect("numeric keys-per-rank")
            }
            "--profile" => profile_name = it.next().expect("--profile <name>").to_string(),
            "--profiles" => {
                profile_list = it
                    .next()
                    .expect("--profiles <a,b,...>")
                    .split(',')
                    .map(|s| s.to_string())
                    .collect()
            }
            cmd => commands.push(cmd.to_string()),
        }
    }
    if commands.is_empty() {
        commands.push("all".to_string());
    }
    let real_bytes = bytes_mb << 20;
    let mc = resolve_profile(&profile_name).config();
    let grid: Vec<&'static dyn pmem_sim::DeviceProfile> =
        profile_list.iter().map(|n| resolve_profile(n)).collect();

    for cmd in &commands {
        if let Err(e) = run_command(cmd, &procs, real_bytes, storm_keys, &mc, &grid) {
            eprintln!("figures: {e}");
            std::process::exit(1);
        }
    }
}

fn run_command(
    cmd: &str,
    procs: &[u64],
    real_bytes: u64,
    storm_keys: u64,
    mc: &MachineConfig,
    grid: &[&'static dyn pmem_sim::DeviceProfile],
) -> std::io::Result<()> {
    match cmd {
        "fig6" => fig_cmd(Direction::Write, procs, real_bytes, mc)?,
        "fig6-wb" => fig6_write_behind(real_bytes, mc)?,
        "fig7" => fig_cmd(Direction::Read, procs, real_bytes, mc)?,
        "api" => print!("{}", api_complexity::render_api_table()),
        "machine" => machine_cmd(mc),
        "ablate-serializer" => ablate_serializer(real_bytes, mc)?,
        "ablate-layout" => ablate_layout(real_bytes, mc)?,
        "ablate-staging" => ablate_staging(real_bytes, mc)?,
        "ablate-fill" => ablate_fill(real_bytes, mc)?,
        "ablate-chunked" => ablate_chunked(real_bytes, mc)?,
        "ablate-buckets" => ablate_buckets(real_bytes, mc)?,
        "ablate-drain" => ablate_drain(real_bytes, mc)?,
        "creation-storm" => creation_storm(storm_keys, mc)?,
        "sweep-profiles" => sweep_profiles(procs, real_bytes, grid)?,
        "volume" => volume_cmd(mc)?,
        "all" => {
            machine_cmd(mc);
            print!("{}", api_complexity::render_api_table());
            fig_cmd(Direction::Write, procs, real_bytes, mc)?;
            fig6_write_behind(real_bytes, mc)?;
            fig_cmd(Direction::Read, procs, real_bytes, mc)?;
            ablate_serializer(real_bytes, mc)?;
            ablate_layout(real_bytes, mc)?;
            ablate_staging(real_bytes, mc)?;
            ablate_fill(real_bytes, mc)?;
            ablate_chunked(real_bytes, mc)?;
            ablate_buckets(real_bytes, mc)?;
            ablate_drain(real_bytes, mc)?;
            creation_storm(storm_keys.min(16_384), mc)?;
            sweep_profiles(&[8], real_bytes.min(8 << 20), grid)?;
            volume_cmd(mc)?;
        }
        other => {
            eprintln!("unknown command {other:?}");
            std::process::exit(2);
        }
    }
    Ok(())
}

fn fig_cmd(
    direction: Direction,
    procs: &[u64],
    real_bytes: u64,
    mc: &MachineConfig,
) -> std::io::Result<()> {
    let (fig, report) = run_figure_reported_on(direction, procs, real_bytes, mc);
    println!("{}", fig.table());
    println!("{}", fig.ascii_chart());
    let checks = match direction {
        Direction::Write => check_fig6_shape(&fig),
        Direction::Read => check_fig7_shape(&fig),
    };
    println!("{}", render_checks(&checks));
    let name = match direction {
        Direction::Write => "fig6_writes",
        Direction::Read => "fig7_reads",
    };
    write_file(&format!("results/{name}.csv"), &fig.csv())?;

    // Where the virtual time goes: phase waterfall at the paper's headline
    // 24-rank point, straight from the metrics registries the sweep ran
    // with. pMEMCPY's staging rows are zero by construction.
    let waterfall_procs = if procs.contains(&24) {
        24
    } else {
        *procs.last().expect("at least one proc count")
    };
    print!("{}", render_waterfall(&report, waterfall_procs));
    println!();

    // BENCH report: the machine-readable version of everything above, fed
    // to the perfgate regression gate in CI.
    let bench_name = match direction {
        Direction::Write => "BENCH_fig6",
        Direction::Read => "BENCH_fig7",
    };
    write_file(&format!("results/{bench_name}.json"), &report.to_json())?;

    // Traced re-run of the paper's headline cell: where the virtual time
    // goes inside PMCPY-A at 24 ranks. Tracing never changes the numbers.
    use pmem_sim::{chrome_trace_json, CollectingSink, TraceSummary, DRAIN_LANE};
    let sink = CollectingSink::new();
    let cfg = CellConfig::paper_on(24, real_bytes.min(16 << 20), mc.clone());
    run_cell_traced(&PmemcpyLib::variant_a(), direction, &cfg, sink.clone());
    let spans = sink.take();
    let summary = TraceSummary::from_spans(&spans);
    println!(
        "{}",
        render_phase_breakdown(
            &format!("Phase breakdown (PMCPY-A, 24 procs, traced {name} cell)"),
            &summary
        )
    );
    let mut lanes: Vec<(u64, String)> = (0..24).map(|r| (r, format!("rank {r}"))).collect();
    if spans.iter().any(|s| s.lane == DRAIN_LANE) {
        lanes.push((DRAIN_LANE, "drain (async)".to_string()));
    }
    write_file(
        &format!("results/{name}_trace.json"),
        &chrome_trace_json(&spans, &lanes),
    )
}

/// CI perf + regression gate: write-behind puts (one fenced WAL append per
/// commit group, checkpoint work on the background lane) must never be
/// slower than inline commits on the paper's headline write cell. Emits a
/// BENCH report for the perfgate baseline comparison and exits nonzero on
/// regression.
fn fig6_write_behind(real_bytes: u64, mc: &MachineConfig) -> std::io::Result<()> {
    use pmem_sim::MetricsRegistry;
    use pmemcpy_bench::{run_cell_observed, RunReport};
    println!("## Figure 6 ablation: write-behind WAL puts vs inline commits (24 procs)");
    let rows = [
        ("PMCPY-A", Options::default()),
        (
            "PMCPY-WB",
            Options {
                // The ring must hold a meaningful fraction of the step so
                // pressure drains stay off the common path.
                wal_capacity: real_bytes.max(4 << 20),
                ..Options::write_behind()
            },
        ),
    ];
    let mut csv = String::from("mode,write_s,pool_txs,wal_appends\n");
    let mut cells = Vec::new();
    let mut times = [0f64; 2];
    for (i, (name, opts)) in rows.into_iter().enumerate() {
        let lib = PmemcpyLib::custom(name, opts);
        let cfg = CellConfig::paper_on(24, real_bytes, mc.clone());
        let w = run_cell_observed(
            &lib,
            Direction::Write,
            &cfg,
            None,
            Some(MetricsRegistry::new()),
        );
        times[i] = w.time.as_secs_f64();
        println!(
            "{name:<9} write {:>8.3}s   pool_txs={:<6} wal_appends={}",
            w.time.as_secs_f64(),
            w.stats.pool_txs,
            w.metrics.counter("wal.appends")
        );
        csv.push_str(&format!(
            "{name},{:.6},{},{}\n",
            w.time.as_secs_f64(),
            w.stats.pool_txs,
            w.metrics.counter("wal.appends")
        ));
        cells.push(w);
    }
    write_file("results/fig6_wb_writes.csv", &csv)?;
    let report = RunReport {
        name: "fig6_wb_writes".into(),
        real_bytes,
        cells,
    };
    write_file("results/BENCH_fig6_wb.json", &report.to_json())?;
    if times[1] > times[0] {
        return Err(std::io::Error::other(format!(
            "write-behind regression: WAL-append write {:.6}s > inline {:.6}s",
            times[1], times[0]
        )));
    }
    println!();
    Ok(())
}

fn machine_cmd(c: &MachineConfig) {
    println!("## §4 testbed: emulated-PMEM constants (Strata method)");
    println!("device profile           {}", c.profile_name);
    println!("cores / SMT threads      {} / {}", c.cores, c.smt_threads);
    println!("PMEM read latency        {}", c.pmem_read_latency);
    println!("PMEM write latency       {}", c.pmem_write_latency);
    println!(
        "PMEM read bandwidth      {} GB/s",
        c.pmem_read_bw / 1_000_000_000
    );
    println!(
        "PMEM write bandwidth     {} GB/s",
        c.pmem_write_bw / 1_000_000_000
    );
    println!(
        "DRAM bus bandwidth       {} GB/s",
        c.dram_bw / 1_000_000_000
    );
    println!("syscall / page fault     {} / {}", c.syscall, c.page_fault);
    println!("MAP_SYNC page penalty    {}", c.map_sync_page);
    println!(
        "flush primitive cost     clwb {}+{}/line, ntstore {}+{}/line{}",
        c.flush_base,
        c.flush_per_line,
        c.ntstore_base,
        c.ntstore_per_line,
        if c.needs_flush {
            ""
        } else {
            " (eADR: flushes free)"
        }
    );
    println!(
        "autotuned put strategy   {}",
        pmem_sim::autotune_flush(c).name()
    );
    println!();
}

/// Device-profile × flush-strategy grid on the write path. For every
/// profile in `grid` the autotuned configuration races both pinned
/// strategies; the run fails if the autotuner ever loses to a pinned
/// strategy, or if no non-default profile shows a measurable win over the
/// worst pinned choice (the whole point of tuning per device). Also
/// re-asks the paper's MAP_SYNC question (PMCPY-A vs PMCPY-B) per profile.
fn sweep_profiles(
    procs: &[u64],
    real_bytes: u64,
    grid: &[&'static dyn pmem_sim::DeviceProfile],
) -> std::io::Result<()> {
    use pmem_sim::FlushStrategy;
    use pmemcpy_bench::RunReport;
    println!("## Device-profile x flush-strategy sweep (write path)");
    let mut csv = String::from("profile,strategy,nprocs,write_s,autotuned\n");
    let mut cells = Vec::new();
    // Best (profile, worst_pinned/auto) margin seen on a non-default profile.
    let mut best_margin: Option<(&'static str, f64)> = None;
    for profile in grid {
        let mc = profile.config();
        let auto = pmem_sim::autotune_flush(&mc);
        for &p in procs {
            let cfg = CellConfig::paper_on(p, real_bytes, mc.clone());
            let modes: [(&str, Option<FlushStrategy>); 3] = [
                ("auto", None),
                ("clwb", Some(FlushStrategy::Clwb)),
                ("ntstore", Some(FlushStrategy::Ntstore)),
            ];
            let mut auto_s = f64::NAN;
            let mut pinned: Vec<(&str, f64)> = vec![];
            for (mode, pin) in modes {
                let label: &'static str =
                    Box::leak(format!("PMCPY/{}/{mode}", profile.name()).into_boxed_str());
                let lib = PmemcpyLib::custom(
                    label,
                    Options {
                        flush_strategy: pin,
                        ..Options::default()
                    },
                );
                let mut cell = run_cell(&lib, Direction::Write, &cfg);
                let resolved = pin.unwrap_or(auto);
                cell.flush_strategy = resolved.name().to_string();
                let secs = cell.time.as_secs_f64();
                println!(
                    "{label:<26} p={p:<3} write {secs:>10.6}s ({})",
                    resolved.name()
                );
                csv.push_str(&format!(
                    "{},{},{p},{secs:.6},{}\n",
                    profile.name(),
                    mode,
                    resolved.name()
                ));
                if mode == "auto" {
                    auto_s = secs;
                } else {
                    pinned.push((mode, secs));
                }
                cells.push(cell);
            }
            let min_pinned = pinned.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
            let worst_pinned = pinned.iter().map(|&(_, s)| s).fold(0.0f64, f64::max);
            if auto_s > min_pinned {
                return Err(std::io::Error::other(format!(
                    "autotuner lost on {} p={p}: auto {auto_s:.6}s > best pinned {min_pinned:.6}s",
                    profile.name()
                )));
            }
            if profile.name() != "optane-gen1" {
                let margin = worst_pinned / auto_s;
                if best_margin.is_none_or(|(_, m)| margin > m) {
                    best_margin = Some((profile.name(), margin));
                }
            }
        }
    }
    write_file("results/sweep_profiles.csv", &csv)?;
    let report = RunReport {
        name: "sweep_profiles".into(),
        real_bytes,
        cells,
    };
    write_file("results/BENCH_profiles.json", &report.to_json())?;
    // The tuner must matter somewhere: on at least one non-default profile
    // the worst pinned strategy has to trail the autotuned choice by a
    // measurable virtual-time margin.
    if !grid.iter().all(|p| p.name() == "optane-gen1") {
        match best_margin {
            Some((name, margin)) if margin >= 1.005 => println!(
                "\nautotuning margin: {name} worst-pinned/auto = {margin:.4}x (gate >= 1.005x: OK)"
            ),
            other => {
                return Err(std::io::Error::other(format!(
                    "no non-default profile showed a measurable autotuning win \
                     (best worst-pinned/auto margin: {other:?}, need >= 1.005x)"
                )))
            }
        }
    }

    // The paper's MAP_SYNC question, re-asked on every profile.
    println!("\n### MAP_SYNC across profiles (PMCPY-A vs PMCPY-B, write)");
    let mut ms_csv = String::from("profile,variant,nprocs,write_s\n");
    let p = procs.first().copied().unwrap_or(8);
    for profile in grid {
        let cfg = CellConfig::paper_on(p, real_bytes, profile.config());
        let a = run_cell(&PmemcpyLib::variant_a(), Direction::Write, &cfg);
        let b = run_cell(&PmemcpyLib::variant_b(), Direction::Write, &cfg);
        let (a_s, b_s) = (a.time.as_secs_f64(), b.time.as_secs_f64());
        println!(
            "{:<12} p={p:<3} A {a_s:>10.6}s  B {b_s:>10.6}s  B/A = {:.3}x",
            profile.name(),
            b_s / a_s
        );
        ms_csv.push_str(&format!("{},A,{p},{a_s:.6}\n", profile.name()));
        ms_csv.push_str(&format!("{},B,{p},{b_s:.6}\n", profile.name()));
    }
    write_file("results/sweep_profiles_mapsync.csv", &ms_csv)?;
    println!();
    Ok(())
}

fn ablate_serializer(real_bytes: u64, mc: &MachineConfig) -> std::io::Result<()> {
    println!("## Ablation: serialization backend (PMCPY-A, 24 procs)");
    let mut csv = String::from("serializer,write_s,read_s\n");
    for ser in ["bp4", "cereal", "capnp-lite", "raw"] {
        let lib = PmemcpyLib::custom(
            "PMCPY-A",
            Options {
                serializer: ser.into(),
                ..Options::default()
            },
        );
        let cfg = CellConfig::paper_on(24, real_bytes, mc.clone());
        let w = run_cell(&lib, Direction::Write, &cfg);
        let r = run_cell(&lib, Direction::Read, &cfg);
        println!(
            "{ser:<12} write {:>8.3}s   read {:>8.3}s",
            w.time.as_secs_f64(),
            r.time.as_secs_f64()
        );
        csv.push_str(&format!(
            "{ser},{:.6},{:.6}\n",
            w.time.as_secs_f64(),
            r.time.as_secs_f64()
        ));
        assert_eq!(r.mismatches, 0, "corruption with serializer {ser}");
    }
    write_file("results/ablate_serializer.csv", &csv)?;
    println!();
    Ok(())
}

fn ablate_layout(real_bytes: u64, mc: &MachineConfig) -> std::io::Result<()> {
    println!("## Ablation: data layout (PMCPY-A, 24 procs)");
    let mut csv = String::from("layout,write_s,read_s\n");
    for (name, layout) in [
        ("pmdk-hashtable", DataLayout::PmdkHashtable),
        ("hierarchical", DataLayout::HierarchicalFiles),
    ] {
        let lib = PmemcpyLib::custom(
            "PMCPY-A",
            Options {
                layout,
                ..Options::default()
            },
        );
        let cfg = CellConfig::paper_on(24, real_bytes, mc.clone());
        let (w, r) = run_layout_cell(&lib, &cfg, layout);
        println!("{name:<16} write {w:>8.3}s   read {r:>8.3}s");
        csv.push_str(&format!("{name},{w:.6},{r:.6}\n"));
    }
    write_file("results/ablate_layout.csv", &csv)?;
    println!();
    Ok(())
}

/// The generic sweep picks DevDax for PMCPY-named libs; the hierarchical
/// layout needs an Fs target, so this ablation drives targets explicitly.
fn run_layout_cell(lib: &PmemcpyLib, cfg: &CellConfig, layout: DataLayout) -> (f64, f64) {
    use mpi_sim::run_world;
    use pmem_sim::{Machine, PersistenceMode, PmemDevice, SimTime};
    use simfs::{MountMode, SimFs};
    use std::sync::Arc;
    use workloads::Domain3dSpec;

    let run_direction = |direction: Direction| -> f64 {
        let mut mc = cfg.machine.clone();
        mc.byte_scale = cfg.byte_scale;
        let machine = Machine::new(mc);
        let device = PmemDevice::new(
            Arc::clone(&machine),
            (cfg.real_bytes * 3 + (32 << 20)) as usize,
            PersistenceMode::Fast,
        );
        let target = match layout {
            DataLayout::PmdkHashtable => Target::DevDax(Arc::clone(&device)),
            DataLayout::HierarchicalFiles => {
                let fs = SimFs::mount_all(Arc::clone(&device), MountMode::Dax);
                fs.mkdir_p(&pmem_sim::Clock::new(), "/vars").unwrap();
                Target::Fs {
                    fs,
                    path: "/vars".into(),
                }
            }
        };
        let spec = Domain3dSpec {
            total_bytes: cfg.real_bytes,
            nvars: cfg.nvars,
            nprocs: cfg.nprocs,
        };
        let decomp = Arc::new(spec.decompose());
        let vars = Arc::new(spec.var_names());

        let run_once = |timed: bool, dir: Direction| -> SimTime {
            if timed {
                machine.reset();
            }
            let (l, d, v, t) = (
                lib.clone(),
                Arc::clone(&decomp),
                Arc::clone(&vars),
                target.clone(),
            );
            let times = run_world(Arc::clone(&machine), cfg.nprocs as usize, move |comm| {
                let rank = comm.rank() as u64;
                match dir {
                    Direction::Write => {
                        let blocks: Vec<Vec<f64>> = (0..v.len())
                            .map(|i| workloads::generate_block(&d, i, rank))
                            .collect();
                        l.write(&comm, &t, &d, &v, &blocks).unwrap();
                    }
                    Direction::Read => {
                        let blocks = l.read(&comm, &t, &d, &v).unwrap();
                        for (i, b) in blocks.iter().enumerate() {
                            assert_eq!(workloads::verify_block(&d, i, rank, b), 0);
                        }
                    }
                }
                comm.barrier();
                comm.now()
            });
            times.into_iter().fold(SimTime::ZERO, SimTime::max)
        };
        match direction {
            Direction::Write => run_once(true, Direction::Write).as_secs_f64(),
            Direction::Read => {
                run_once(false, Direction::Write);
                run_once(true, Direction::Read).as_secs_f64()
            }
        }
    };
    (
        run_direction(Direction::Write),
        run_direction(Direction::Read),
    )
}

fn ablate_staging(real_bytes: u64, mc: &MachineConfig) -> std::io::Result<()> {
    println!("## Ablation: direct-to-PMEM (pMEMCPY) vs DRAM-staged (ADIOS) writes");
    let cfg = CellConfig::paper_on(24, real_bytes, mc.clone());
    let direct = run_cell(&PmemcpyLib::variant_a(), Direction::Write, &cfg);
    let staged = run_cell(&baselines::AdiosLike::default(), Direction::Write, &cfg);
    println!(
        "direct-to-PMEM  {:>8.3}s   dram_copied={} B",
        direct.time.as_secs_f64(),
        direct.stats.dram_bytes_copied
    );
    println!(
        "DRAM-staged     {:>8.3}s   dram_copied={} B",
        staged.time.as_secs_f64(),
        staged.stats.dram_bytes_copied
    );
    write_file(
        "results/ablate_staging.csv",
        &format!(
            "path,seconds,dram_bytes_copied\ndirect,{:.6},{}\nstaged,{:.6},{}\n",
            direct.time.as_secs_f64(),
            direct.stats.dram_bytes_copied,
            staged.time.as_secs_f64(),
            staged.stats.dram_bytes_copied
        ),
    )?;
    println!();
    Ok(())
}

fn ablate_fill(real_bytes: u64, mc: &MachineConfig) -> std::io::Result<()> {
    println!("## Ablation: NetCDF fill vs NC_NOFILL (the paper disables fill)");
    let cfg = CellConfig::paper_on(24, real_bytes, mc.clone());
    let nofill = run_cell(&Netcdf4Like::default(), Direction::Write, &cfg);
    let fill = run_cell(
        &Netcdf4Like {
            nofill: false,
            ..Netcdf4Like::default()
        },
        Direction::Write,
        &cfg,
    );
    println!("NC_NOFILL       {:>8.3}s", nofill.time.as_secs_f64());
    println!("fill (default)  {:>8.3}s", fill.time.as_secs_f64());
    write_file(
        "results/ablate_fill.csv",
        &format!(
            "mode,seconds\nnofill,{:.6}\nfill,{:.6}\n",
            nofill.time.as_secs_f64(),
            fill.time.as_secs_f64()
        ),
    )?;
    println!();
    Ok(())
}

fn ablate_chunked(real_bytes: u64, mc: &MachineConfig) -> std::io::Result<()> {
    println!("## Ablation: HDF5 layout — contiguous vs chunked vs chunked+filter (24 procs)");
    let mut csv = String::from("layout,write_s,read_s\n");
    let configs: [(&str, Netcdf4Like); 4] = [
        ("contiguous", Netcdf4Like::default()),
        ("chunked", Netcdf4Like::chunked(None)),
        ("chunked+rle", Netcdf4Like::chunked(Some("rle"))),
        ("chunked+gorilla", Netcdf4Like::chunked(Some("gorilla"))),
    ];
    for (name, lib) in configs {
        let cfg = CellConfig::paper_on(24, real_bytes, mc.clone());
        let w = run_cell(&lib, Direction::Write, &cfg);
        let r = run_cell(&lib, Direction::Read, &cfg);
        assert_eq!(r.mismatches, 0, "corruption in {name}");
        println!(
            "{name:<16} write {:>8.3}s   read {:>8.3}s   media {:>6.1} GB",
            w.time.as_secs_f64(),
            r.time.as_secs_f64(),
            w.stats.pmem_bytes_written as f64 / 1e9,
        );
        csv.push_str(&format!(
            "{name},{:.6},{:.6}\n",
            w.time.as_secs_f64(),
            r.time.as_secs_f64()
        ));
    }
    write_file("results/ablate_chunked.csv", &csv)?;
    println!();
    Ok(())
}

fn ablate_buckets(real_bytes: u64, mc: &MachineConfig) -> std::io::Result<()> {
    println!("## Ablation: metadata hashtable buckets (PMCPY-A, 24 procs)");
    println!("   (§3: the flat hashtable exploits PMEM's random-access parallelism)");
    let mut csv = String::from("buckets,write_s,read_s\n");
    for buckets in [1u64, 16, 256, 4096] {
        let lib = PmemcpyLib::custom(
            "PMCPY-A",
            Options {
                hashtable_buckets: buckets,
                ..Options::default()
            },
        );
        let cfg = CellConfig::paper_on(24, real_bytes, mc.clone());
        let w = run_cell(&lib, Direction::Write, &cfg);
        let r = run_cell(&lib, Direction::Read, &cfg);
        println!(
            "buckets={buckets:<6} write {:>8.3}s   read {:>8.3}s",
            w.time.as_secs_f64(),
            r.time.as_secs_f64()
        );
        csv.push_str(&format!(
            "{buckets},{:.6},{:.6}\n",
            w.time.as_secs_f64(),
            r.time.as_secs_f64()
        ));
    }
    write_file("results/ablate_buckets.csv", &csv)?;
    println!();
    Ok(())
}

fn ablate_drain(real_bytes: u64, mc: &MachineConfig) -> std::io::Result<()> {
    use mpi_sim::{Comm, World};
    use pmem_sim::{Machine, PersistenceMode, PmemDevice};
    use pmemcpy::{MmapTarget, Pmem};
    use simfs::{MountMode, SimFs};
    use std::sync::Arc;
    println!("## Ablation: burst-buffer drain (Fig. 1: PMEM -> shared burst buffer)");
    let mut mc = mc.clone();
    let spec = workloads::Domain3dSpec {
        total_bytes: real_bytes,
        nvars: 10,
        nprocs: 1,
    };
    mc.byte_scale = ((40u64 << 30) / spec.actual_bytes()).max(1);
    let machine = Machine::new(mc);
    let device = PmemDevice::new(
        Arc::clone(&machine),
        (real_bytes * 3 + (32 << 20)) as usize,
        PersistenceMode::Fast,
    );
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&device), &comm).unwrap();
    let decomp = spec.decompose();
    for (v, name) in spec.var_names().iter().enumerate() {
        let block = workloads::generate_block(&decomp, v, 0);
        pmem.alloc::<f64>(name, &decomp.global_dims).unwrap();
        pmem.store_block(name, &block, &[0, 0, 0], &decomp.global_dims)
            .unwrap();
    }
    let store_time = pmem.now();
    let bb_dev = PmemDevice::new(
        Arc::clone(&machine),
        (real_bytes * 3 + (32 << 20)) as usize,
        PersistenceMode::Fast,
    );
    let bb = SimFs::mount_all(bb_dev, MountMode::PageCache);
    let report = pmem.drain_to_storage(&bb, "/bb").unwrap();
    println!("store (PMEM)     {:>8.3}s", store_time.as_secs_f64());
    println!(
        "drain (async)    {:>8.3}s   {} keys, {:.1} GB modelled",
        report.drain_time.as_secs_f64(),
        report.keys,
        machine.stats.snapshot().storage_bytes_written as f64 / 1e9,
    );
    println!(
        "app clock after drain: {} (unchanged — drain is asynchronous)",
        pmem.now()
    );
    write_file(
        "results/ablate_drain.csv",
        &format!(
            "phase,seconds\nstore,{:.6}\ndrain,{:.6}\n",
            store_time.as_secs_f64(),
            report.drain_time.as_secs_f64()
        ),
    )?;
    pmem.munmap().unwrap();
    println!();
    Ok(())
}

/// Namespace shape of a finished storm, read back from the pool after the
/// timed run (stats/metrics are snapshotted first, so the inspection walk
/// never leaks into gated counters).
struct StormShape {
    len: u64,
    max_chain: u64,
    chain_p99: u64,
    splits: u64,
    contended: u64,
}

/// Drive one creation storm: `spec.ranks` ranks each mint
/// `spec.keys_per_rank` fresh keys through the full batched put path under
/// the deterministic scheduler, then read back a sample for verification.
/// Bit-reproducible by construction, so every counter is CI-gateable.
fn run_storm_cell(
    spec: workloads::StormSpec,
    mc: &MachineConfig,
) -> std::io::Result<(pmemcpy_bench::CellResult, StormShape)> {
    use mpi_sim::{run_world_mode, SchedMode};
    use pmem_sim::{Clock, Machine, MetricsRegistry, PersistenceMode, PmemDevice, SimTime};
    use pmemcpy::{registry, MmapTarget, Pmem};
    use std::sync::Arc;

    let machine = Machine::new(mc.clone());
    let metrics = Arc::new(MetricsRegistry::new());
    machine.set_metrics(Arc::clone(&metrics));
    // Payloads are tiny; the device is sized by per-key metadata (entry
    // header + key + serialized value + directory growth headroom).
    let dev_size = (spec.total_keys() * 384 + (64 << 20)) as usize;
    let device = PmemDevice::new(Arc::clone(&machine), dev_size, PersistenceMode::Fast);
    let dev2 = Arc::clone(&device);
    let results = run_world_mode(
        Arc::clone(&machine),
        spec.ranks as usize,
        SchedMode::Deterministic,
        move |comm| {
            let rank = comm.rank() as u64;
            let mut pmem = Pmem::new();
            pmem.mmap(MmapTarget::DevDax(&dev2), &comm).unwrap();
            let mut i = 0;
            while i < spec.keys_per_rank {
                // Group-commit in steps of 64 keys: one pool transaction,
                // one allocator pass per step.
                let n = (spec.keys_per_rank - i).min(64);
                let keys: Vec<String> = (i..i + n).map(|k| spec.key(rank, k)).collect();
                let vals: Vec<Vec<u8>> = (i..i + n).map(|k| spec.value(rank, k)).collect();
                let mut batch = pmem.batch();
                for (k, v) in keys.iter().zip(&vals) {
                    batch.store_slice::<u8>(k, v).unwrap();
                }
                batch.commit().unwrap();
                i += n;
            }
            // Sampled self-verification, staggered per rank so the sample
            // covers different residues of the key space.
            let mut mismatches = 0u64;
            let mut k = rank % 97;
            while k < spec.keys_per_rank {
                let got: Vec<u8> = pmem.load_slice(&spec.key(rank, k)).unwrap();
                mismatches += spec.verify(rank, k, &got);
                k += 97;
            }
            comm.barrier();
            let t = comm.now();
            pmem.munmap().unwrap();
            (t, mismatches)
        },
    );
    let stats = machine.stats.snapshot();
    let snap = metrics.snapshot();
    let rank_times: Vec<SimTime> = results.iter().map(|(t, _)| *t).collect();
    let time = rank_times.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let mismatches: u64 = results.iter().map(|(_, m)| *m).sum();

    // Inspect the finished namespace straight from the pool.
    let clock = Clock::new();
    let shared = registry::shared_pool(
        &clock,
        &device,
        "pmemcpy",
        Options::default().hashtable_buckets,
    )
    .map_err(|e| std::io::Error::other(format!("storm reopen: {e}")))?;
    let hist = shared.hashtable.chain_length_histogram(&clock);
    let len = shared.hashtable.len(&clock);
    registry::release_pool(&device);
    let max_chain = (hist.len().saturating_sub(1)) as u64;
    let buckets: u64 = hist.iter().sum();
    let mut chain_p99 = 0u64;
    let mut seen = 0u64;
    for (l, n) in hist.iter().enumerate() {
        seen += n;
        if seen * 100 >= buckets * 99 {
            chain_p99 = l as u64;
            break;
        }
    }
    let contended: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("stripe.") && k.ends_with(".contended"))
        .map(|(_, v)| *v)
        .sum();
    let shape = StormShape {
        len,
        max_chain,
        chain_p99,
        splits: snap.counter("ht.splits"),
        contended,
    };
    let cell = pmemcpy_bench::CellResult {
        library: "PMCPY-A".to_string(),
        direction: Direction::Write,
        nprocs: spec.ranks,
        device_profile: mc.profile_name.to_string(),
        flush_strategy: pmem_sim::autotune_flush(mc).name().to_string(),
        time,
        rank_times,
        stats,
        metrics: snap,
        mismatches: mismatches as usize,
    };
    Ok((cell, shape))
}

/// CI perf + correctness gate for the resizable metadata directory: an
/// 8-rank key-creation storm must land every key (verified by sampled
/// read-back), complete its incremental splits, and keep the longest
/// persistent chain within the design bound. Emits `BENCH_storm.json` for
/// the perfgate baseline comparison and exits nonzero on violation.
fn creation_storm(keys_per_rank: u64, mc: &MachineConfig) -> std::io::Result<()> {
    /// With `SPLIT_FACTOR = 2` the settled load factor is at most ~1
    /// entry per 2 buckets; at millions of keys the Poisson tail puts
    /// P(max chain > 8) well under 1%.
    const MAX_CHAIN_BOUND: u64 = 8;
    let spec = workloads::StormSpec::new(8, keys_per_rank, 8);
    println!(
        "## Creation storm: {} ranks x {} fresh keys (resizable metadata directory)",
        spec.ranks, spec.keys_per_rank
    );
    let (cell, shape) = run_storm_cell(spec, mc)?;
    println!(
        "storm    write {:>8.3}s   keys={} splits={} chain_max={} chain_p99={} contended={}",
        cell.time.as_secs_f64(),
        shape.len,
        shape.splits,
        shape.max_chain,
        shape.chain_p99,
        shape.contended,
    );
    write_file(
        "results/creation_storm.csv",
        &format!(
            "ranks,keys_per_rank,write_s,pool_txs,splits,chain_max,chain_p99,stripe_contended\n\
             {},{},{:.6},{},{},{},{},{}\n",
            spec.ranks,
            spec.keys_per_rank,
            cell.time.as_secs_f64(),
            cell.stats.pool_txs,
            shape.splits,
            shape.max_chain,
            shape.chain_p99,
            shape.contended,
        ),
    )?;
    let report = pmemcpy_bench::RunReport {
        name: "creation_storm".into(),
        real_bytes: spec.total_keys() * spec.value_bytes,
        cells: vec![cell],
    };
    write_file("results/BENCH_storm.json", &report.to_json())?;
    if shape.len != spec.total_keys() {
        return Err(std::io::Error::other(format!(
            "creation storm lost keys: {} stored, {} expected",
            shape.len,
            spec.total_keys()
        )));
    }
    if report.cells[0].mismatches != 0 {
        return Err(std::io::Error::other(format!(
            "creation storm corrupted {} sampled bytes",
            report.cells[0].mismatches
        )));
    }
    if shape.max_chain > MAX_CHAIN_BOUND {
        return Err(std::io::Error::other(format!(
            "creation storm chain bound violated: max chain {} > {MAX_CHAIN_BOUND}",
            shape.max_chain
        )));
    }
    println!();
    Ok(())
}

fn volume_cmd(mc: &MachineConfig) -> std::io::Result<()> {
    println!("## Volume scaling: PMCPY-A write/read vs modelled volume (24 procs)");
    let mut csv = String::from("modelled_gb,write_s,read_s\n");
    for gb in [5u64, 10, 20, 40, 80] {
        // Fix the real volume; scale the model.
        let mut cfg = CellConfig::paper_on(24, 16 << 20, mc.clone());
        let spec = workloads::Domain3dSpec {
            total_bytes: 16 << 20,
            nvars: 10,
            nprocs: 24,
        };
        cfg.byte_scale = ((gb << 30) / spec.actual_bytes()).max(1);
        let lib = PmemcpyLib::variant_a();
        let w = run_cell(&lib, Direction::Write, &cfg);
        let r = run_cell(&lib, Direction::Read, &cfg);
        println!(
            "{gb:>3} GB   write {:>8.3}s   read {:>8.3}s",
            w.time.as_secs_f64(),
            r.time.as_secs_f64()
        );
        csv.push_str(&format!(
            "{gb},{:.6},{:.6}\n",
            w.time.as_secs_f64(),
            r.time.as_secs_f64()
        ));
    }
    println!("(bandwidth-bound: time is linear in volume)");
    write_file("results/volume_scaling.csv", &csv)?;
    println!();
    Ok(())
}

/// Write `contents` to `path`, creating parent directories as needed.
/// Errors carry the path so `main` can print an actionable message and
/// exit nonzero instead of panicking.
fn write_file(path: &str, contents: &str) -> std::io::Result<()> {
    let ctx = |e: std::io::Error| std::io::Error::new(e.kind(), format!("{path}: {e}"));
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(ctx)?;
        }
    }
    std::fs::write(path, contents).map_err(ctx)?;
    println!("[wrote {path}]");
    Ok(())
}
