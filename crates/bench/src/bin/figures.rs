//! Regenerate the paper's tables and figures. Every command is one row of
//! `pmemcpy_bench::experiments::TABLE`; the text below is what a bad
//! invocation prints, generated from that table (held equal by
//! `tests/figures_cli.rs`).
//!
//! ```text
//! usage: figures [--bytes <MB>] [--procs <n,n,...>] [--storm-keys <N>]
//!                [--profile <name>] [--profiles <a,b,...>] [<command>...]
//!
//! commands (default: all):
//!   machine            §4 testbed / PMEM-emulation constants
//!   api                §3 API-complexity table
//!   fig6               Figure 6: write performance sweep
//!   fig6-wb            Figure 6 ablation: write-behind WAL puts vs inline; gates WB <= inline
//!   fig7               Figure 7: read performance sweep
//!   ablate-serializer  store/load cost per serialization backend
//!   ablate-layout      hashtable vs hierarchical layout
//!   ablate-staging     direct-to-PMEM vs DRAM-staged serialization
//!   ablate-fill        NetCDF fill vs NC_NOFILL
//!   ablate-drain       asynchronous burst-buffer drain (Fig. 1 tier)
//!   creation-storm     metadata storm: 8 ranks minting fresh keys; gates the chain-length bound
//!   storm-value-sizes  8-rank storm over 8 B-4 KiB values (<= 2048 keys a rank): where the combined store stops paying
//!   sweep-profiles     device-profile x flush-strategy grid; gates the device's own <= the other
//!   sweep-profiles     second table: MAP_SYNC across the profiles (PMCPY-A vs PMCPY-B, write)
//!   volume             PMCPY-A write/read vs modelled volume, 5-80 GB (bandwidth-bound: linear)
//!   all                every command above, in that order; CSVs land in results/
//!
//! --bytes       real backing volume in MB (default 64); the modelled volume
//!               is always the paper's 40 GB via the machine's byte_scale
//! --procs       the figures' x-axis (default 8,16,24,32,48)
//! --storm-keys  keys per rank for creation-storm (default 131072, ~1M keys)
//! --profile     modelled device (default optane-gen1, the paper's testbed)
//! --profiles    device grid of sweep-profiles (default: every profile)
//! profiles: optane-gen1, optane-gen2, eadr, cxl
//! ```
//!
//! Exit status: 0 ok, 1 a gate or I/O failure, 2 a bad invocation (nothing
//! has run).

use pmem_sim::profile::{by_name, profile_names};
use pmem_sim::MachineConfig;
use pmemcpy_bench::experiments::{find, run, Ctx, TABLE};
use pmemcpy_bench::PAPER_PROCS;
use std::process::ExitCode;

fn usage() -> String {
    let mut out = String::from(
        "usage: figures [--bytes <MB>] [--procs <n,n,...>] [--storm-keys <N>]\n               \
         [--profile <name>] [--profiles <a,b,...>] [<command>...]\n\n\
         commands (default: all):\n",
    );
    for exp in TABLE {
        out.push_str(&format!("  {:<18} {}\n", exp.name, exp.help));
    }
    out.push_str(&format!(
        "  {:<18} every command above, in that order; CSVs land in results/\n\n\
         --bytes       real backing volume in MB (default 64); the modelled volume\n              \
         is always the paper's 40 GB via the machine's byte_scale\n\
         --procs       the figures' x-axis (default 8,16,24,32,48)\n\
         --storm-keys  keys per rank for creation-storm (default 131072, ~1M keys)\n\
         --profile     modelled device (default optane-gen1, the paper's testbed)\n\
         --profiles    device grid of sweep-profiles (default: every profile)\n\
         profiles: {}\n",
        "all",
        profile_names().join(", ")
    ));
    out
}

fn profile(name: &str) -> Result<MachineConfig, String> {
    by_name(name).ok_or_else(|| format!("unknown device profile {name:?}"))
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} wants a number, got {value:?}"))
}

/// Check the whole command line against the table before anything runs.
fn parse(args: &[String]) -> Result<(Ctx, Vec<&str>), String> {
    let mut ctx = Ctx {
        procs: PAPER_PROCS.to_vec(),
        real_bytes: 64 << 20,
        storm_keys: 131_072,
        machine: profile("optane-gen1")?,
        profiles: vec![],
    };
    let mut grid = profile_names().join(",");
    let mut commands = vec![];
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if arg != "all" && find(arg).is_none() {
                return Err(format!("unknown command {arg:?}"));
            }
            commands.push(arg.as_str());
            continue;
        }
        let value = it.next().ok_or(format!("{arg} needs a value"))?;
        match arg.as_str() {
            "--bytes" => {
                let mb = number(arg, value)?;
                ctx.real_bytes = mb.checked_mul(1 << 20).ok_or("--bytes is too large")?;
            }
            "--procs" => {
                let procs: Result<_, _> = value.split(',').map(|p| number(arg, p)).collect();
                ctx.procs = procs?;
                if ctx.procs.contains(&0) {
                    return Err("--procs wants rank counts of at least 1".into());
                }
            }
            "--storm-keys" => {
                ctx.storm_keys = number(arg, value)?;
                if ctx.storm_keys == 0 {
                    return Err("--storm-keys wants at least 1 key per rank".into());
                }
            }
            "--profile" => ctx.machine = profile(value)?,
            "--profiles" => grid = value.clone(),
            _ => return Err(format!("unknown flag {arg}")),
        }
    }
    let profiles: Result<_, _> = grid.split(',').map(profile).collect();
    ctx.profiles = profiles?;
    if commands.is_empty() {
        commands.push("all");
    }
    Ok((ctx, commands))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (ctx, commands) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("figures: {e}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    for cmd in commands {
        for exp in TABLE.iter().filter(|e| cmd == "all" || e.name == cmd) {
            let ctx = if cmd == "all" {
                exp.ctx_in_all(&ctx)
            } else {
                ctx.clone()
            };
            if let Err(e) = run(exp, &ctx) {
                eprintln!("figures: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
