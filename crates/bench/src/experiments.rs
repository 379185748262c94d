//! The experiment table: every `figures` command is a row of [`TABLE`]
//! (name, help, grid of cells, CSV key + columns, optional BENCH report,
//! optional gate) and [`run`] is the one loop that measures, prints,
//! tabulates, reports and gates every one of them. The CLI's usage text,
//! `all`, and unknown-command rejection all read the table.
//!
//! Adding an experiment is one row: a grid of `Row`s and the columns to
//! keep.

use crate::report::{check_shape, render_checks, render_waterfall, Outcome, RunReport};
use crate::sweep::{run_cell, run_storm_cell, CellConfig, Direction};
use baselines::{figure_lineup, AdiosLike, Netcdf4Like, PioLibrary, PmemcpyLib};
use pmem_sim::{FlushStrategy, MachineConfig, MetricsRegistry};
use pmemcpy::Options;
use workloads::{Domain3dSpec, StormSpec};

/// What the command line chose; every grid is a function of it.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The figures' x-axis (`--procs`); never empty.
    pub procs: Vec<u64>,
    /// Real backing volume per cell (`--bytes`, in bytes).
    pub real_bytes: u64,
    /// Keys per rank of the creation storm (`--storm-keys`).
    pub storm_keys: u64,
    /// The modelled device (`--profile`).
    pub machine: MachineConfig,
    /// The device grid of `sweep-profiles` (`--profiles`).
    pub profiles: Vec<MachineConfig>,
}

impl Ctx {
    /// The paper's cell at `nprocs` on the chosen device and volume.
    fn cell(&self, nprocs: u64) -> CellConfig {
        CellConfig::paper_on(nprocs, self.real_bytes, self.machine.clone())
    }
}

/// One row of an experiment's grid.
pub(crate) struct Row {
    /// The CSV key fields, comma-joined (see [`Experiment::key`]).
    pub key: String,
    pub cell: Cell,
}

// A grid is a handful of short-lived rows; boxing the common variant
// would buy nothing.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Cell {
    /// The §4.1 domain workload through `lib`, once per direction of the
    /// experiment.
    Domain {
        lib: Box<dyn PioLibrary>,
        cfg: CellConfig,
    },
    /// The key-creation storm.
    Storm(StormSpec),
}

impl Row {
    fn lib(key: impl ToString, lib: Box<dyn PioLibrary>, cfg: CellConfig) -> Row {
        Row {
            key: key.to_string(),
            cell: Cell::Domain { lib, cfg },
        }
    }

    /// pMEMCPY under `options`, labelled `label` in reports.
    fn pmcpy(key: impl ToString, label: &'static str, options: Options, cfg: CellConfig) -> Row {
        Row::lib(key, Box::new(PmemcpyLib::custom(label, options)), cfg)
    }
}

/// One CSV column: header and how to read it off a measured row.
pub(crate) struct Col(pub &'static str, pub fn(&Outcome) -> String);

fn secs(o: &Outcome, cell: usize) -> String {
    format!("{:.6}", o.cells[cell].time.as_secs_f64())
}

macro_rules! stat {
    ($field:ident) => {
        Col(stringify!($field), |o| o.cells[0].stats.$field.to_string())
    };
}
macro_rules! storm {
    ($name:literal, $field:ident) => {
        Col($name, |o| {
            o.storm.as_ref().map_or(0, |s| s.$field).to_string()
        })
    };
}

const SECONDS: Col = Col("seconds", |o| secs(o, 0));
const WRITE_S: Col = Col("write_s", |o| secs(o, 0));
const READ_S: Col = Col("read_s", |o| secs(o, 1));
const MISMATCHES: Col = Col("mismatches", |o| o.cells[0].mismatches.to_string());
const WAL_APPENDS: Col = Col("wal_appends", |o| {
    o.cells[0].metrics.counter("wal.appends").to_string()
});
const PRIMITIVE: Col = Col("primitive", |o| o.cells[0].flush_strategy.clone());
const META_WRITES: Col = Col("meta_writes", |o| {
    let hists = &o.cells[0].metrics.hists;
    hists
        .get("pmem.meta_write")
        .map_or(0, |h| h.count)
        .to_string()
});

const WRITE: &[Direction] = &[Direction::Write];
const WRITE_READ: &[Direction] = &[Direction::Write, Direction::Read];

pub(crate) type Finish = fn(&Ctx, &RunReport) -> Result<(), String>;

/// One `figures` command.
pub struct Experiment {
    pub name: &'static str,
    /// One line for the usage text and the heading above the rows.
    pub help: &'static str,
    /// `results/<stem>.csv`, and the BENCH report's `name`.
    pub stem: &'static str,
    /// CSV header of the key fields every `Row::key` fills.
    pub key: &'static str,
    /// CSV columns after the key; none means no CSV.
    pub(crate) cols: &'static [Col],
    /// Columns printed with each row but kept out of the CSV.
    pub(crate) shown: &'static [Col],
    /// Directions every domain row runs, in `Outcome::cells` order.
    pub dirs: &'static [Direction],
    /// Run every cell with a metrics registry installed.
    pub metrics: bool,
    /// `results/BENCH_<bench>.json`, when the experiment is perf-gated.
    pub bench: Option<&'static str>,
    pub(crate) grid: fn(&Ctx) -> Vec<Row>,
    /// The gate, and anything the command prints beyond its rows. An
    /// experiment without a grid (constants, API table, drain) is only this.
    pub finish: Option<Finish>,
    /// Caps on `--storm-keys`, `--bytes` and (when non-empty) a replacement
    /// for `--procs` while the row runs as part of `all`, so the full
    /// regeneration stays minutes, not hours.
    pub all_storm_keys: u64,
    pub all_bytes: u64,
    pub all_procs: &'static [u64],
}

impl Experiment {
    /// The context this row runs under as part of `all`.
    pub fn ctx_in_all(&self, ctx: &Ctx) -> Ctx {
        Ctx {
            storm_keys: ctx.storm_keys.min(self.all_storm_keys),
            real_bytes: ctx.real_bytes.min(self.all_bytes),
            procs: match self.all_procs {
                [] => ctx.procs.clone(),
                procs => procs.to_vec(),
            },
            ..ctx.clone()
        }
    }
}

const BASE: Experiment = Experiment {
    name: "",
    help: "",
    stem: "",
    key: "",
    cols: &[],
    shown: &[],
    dirs: WRITE,
    metrics: false,
    bench: None,
    grid: |_| vec![],
    finish: None,
    all_storm_keys: u64::MAX,
    all_bytes: u64::MAX,
    all_procs: &[],
};

/// A write + read-back ablation of the headline 24-rank cell.
const ABLATION: Experiment = Experiment {
    cols: &[WRITE_S, READ_S],
    dirs: WRITE_READ,
    ..BASE
};

const FIGURE: Experiment = Experiment {
    key: "library,nprocs",
    cols: &[
        SECONDS,
        stat!(pmem_bytes_written),
        stat!(pmem_bytes_read),
        stat!(dram_bytes_copied),
        stat!(net_bytes),
        stat!(syscalls),
        MISMATCHES,
    ],
    metrics: true,
    grid: |ctx| {
        let mut rows = vec![];
        for &p in &ctx.procs {
            for lib in figure_lineup() {
                rows.push(Row::lib(format!("{},{p}", lib.name()), lib, ctx.cell(p)));
            }
        }
        rows
    },
    finish: Some(figure),
    ..BASE
};

/// Every command, in the order `all` runs them.
pub static TABLE: &[Experiment] = &[
    Experiment {
        name: "machine",
        help: "§4 testbed / PMEM-emulation constants",
        finish: Some(machine),
        ..BASE
    },
    Experiment {
        name: "api",
        help: "§3 API-complexity table",
        finish: Some(|_, _| {
            print!("{}", crate::api_complexity::render_api_table());
            Ok(())
        }),
        ..BASE
    },
    Experiment {
        name: "fig6",
        help: "Figure 6: write performance sweep",
        stem: "fig6_writes",
        bench: Some("fig6"),
        ..FIGURE
    },
    Experiment {
        name: "fig6-wb",
        help: "Figure 6 ablation: write-behind WAL puts vs inline; gates WB <= inline",
        stem: "fig6_wb_writes",
        key: "mode",
        cols: &[WRITE_S, stat!(pool_txs), WAL_APPENDS],
        metrics: true,
        bench: Some("fig6_wb"),
        grid: |ctx| {
            let write_behind = Options {
                // The ring must hold a meaningful fraction of the step so
                // pressure drains stay off the common path.
                wal_capacity: ctx.real_bytes.max(4 << 20),
                ..Options::write_behind()
            };
            vec![
                Row::pmcpy("PMCPY-A", "PMCPY-A", Options::default(), ctx.cell(24)),
                Row::pmcpy("PMCPY-WB", "PMCPY-WB", write_behind, ctx.cell(24)),
            ]
        },
        finish: Some(|_, report| {
            let t = |i: usize| report.rows[i].cells[0].time.as_secs_f64();
            if t(1) > t(0) {
                return Err(format!(
                    "write-behind regression: WAL-append write {:.6}s > inline {:.6}s",
                    t(1),
                    t(0)
                ));
            }
            Ok(())
        }),
        ..BASE
    },
    Experiment {
        name: "fig7",
        help: "Figure 7: read performance sweep",
        stem: "fig7_reads",
        dirs: &[Direction::Read],
        bench: Some("fig7"),
        ..FIGURE
    },
    Experiment {
        name: "ablate-serializer",
        help: "store/load cost per serialization backend",
        stem: "ablate_serializer",
        key: "serializer",
        grid: |ctx| {
            let row = |ser: &str| {
                let options = Options {
                    serializer: ser.into(),
                    ..Options::default()
                };
                Row::pmcpy(ser, "PMCPY-A", options, ctx.cell(24))
            };
            ["bp4", "cereal", "capnp-lite", "raw"].map(row).into()
        },
        ..ABLATION
    },
    Experiment {
        name: "ablate-layout",
        help: "hashtable vs hierarchical layout",
        stem: "ablate_layout",
        key: "layout",
        grid: |ctx| {
            let hierarchical = PmemcpyLib::variant_a().on_fs();
            vec![
                Row::lib(
                    "pmdk-hashtable",
                    Box::new(PmemcpyLib::variant_a()),
                    ctx.cell(24),
                ),
                Row::lib("hierarchical", Box::new(hierarchical), ctx.cell(24)),
            ]
        },
        ..ABLATION
    },
    Experiment {
        name: "ablate-staging",
        help: "direct-to-PMEM vs DRAM-staged serialization",
        stem: "ablate_staging",
        key: "path",
        cols: &[SECONDS, stat!(dram_bytes_copied)],
        grid: |ctx| {
            vec![
                Row::lib("direct", Box::new(PmemcpyLib::variant_a()), ctx.cell(24)),
                Row::lib("staged", Box::new(AdiosLike), ctx.cell(24)),
            ]
        },
        ..BASE
    },
    Experiment {
        name: "ablate-fill",
        help: "NetCDF fill vs NC_NOFILL",
        stem: "ablate_fill",
        key: "mode",
        cols: &[SECONDS],
        grid: |ctx| {
            vec![
                Row::lib("nofill", Box::new(Netcdf4Like::default()), ctx.cell(24)),
                Row::lib(
                    "fill",
                    Box::new(Netcdf4Like { nofill: false }),
                    ctx.cell(24),
                ),
            ]
        },
        ..BASE
    },
    Experiment {
        name: "ablate-drain",
        help: "asynchronous burst-buffer drain (Fig. 1 tier)",
        finish: Some(drain),
        ..BASE
    },
    Experiment {
        name: "creation-storm",
        help: "metadata storm: 8 ranks minting fresh keys; gates the chain-length bound",
        stem: "creation_storm",
        key: "ranks,keys_per_rank",
        cols: &[
            WRITE_S,
            stat!(pool_txs),
            storm!("splits", splits),
            storm!("chain_max", max_chain),
            storm!("chain_p99", chain_p99),
            storm!("stripe_contended", contended),
        ],
        shown: &[storm!("keys", len)],
        bench: Some("storm"),
        grid: |ctx| {
            let spec = StormSpec::new(8, ctx.storm_keys, 8);
            vec![Row {
                key: format!("{},{}", spec.ranks, spec.keys_per_rank),
                cell: Cell::Storm(spec),
            }]
        },
        finish: Some(storm_gate),
        all_storm_keys: 16_384,
        ..BASE
    },
    Experiment {
        name: "storm-value-sizes",
        help: "8-rank storm over 8 B-4 KiB values (<= 2048 keys a rank): where the combined store stops paying",
        stem: "storm_value_sizes",
        key: "value_bytes",
        cols: &[WRITE_S, stat!(flush_calls), META_WRITES],
        grid: |ctx| {
            // At most 64 MiB of values a row.
            let keys = ctx.storm_keys.min(2_048);
            let row = |bytes: u64| Row {
                key: bytes.to_string(),
                cell: Cell::Storm(StormSpec::new(8, keys, bytes)),
            };
            [8, 64, 128, 160, 192, 256, 512, 4096].map(row).into()
        },
        ..BASE
    },
    Experiment {
        name: "sweep-profiles",
        help: "device-profile x flush-strategy grid; gates the device's own <= the other",
        stem: "sweep_profiles",
        key: "profile,strategy,nprocs",
        cols: &[WRITE_S, PRIMITIVE],
        bench: Some("profiles"),
        grid: |ctx| {
            let mut rows = vec![];
            for mc in &ctx.profiles {
                for &p in &ctx.procs {
                    // `auto` is the device as declared; the other two force
                    // a primitive onto it.
                    for (mode, flush_strategy) in [
                        ("auto", mc.flush_strategy),
                        ("clwb", FlushStrategy::Clwb),
                        ("ntstore", FlushStrategy::Ntstore),
                    ] {
                        let profile = mc.profile_name;
                        let label = Box::leak(format!("PMCPY/{profile}/{mode}").into_boxed_str());
                        let machine = MachineConfig {
                            flush_strategy,
                            ..mc.clone()
                        };
                        let cfg = CellConfig::paper_on(p, ctx.real_bytes, machine);
                        rows.push(Row::pmcpy(
                            format!("{profile},{mode},{p}"),
                            label,
                            Options::default(),
                            cfg,
                        ));
                    }
                }
            }
            rows
        },
        finish: Some(profiles_gate),
        all_bytes: 8 << 20,
        all_procs: &[8],
        ..BASE
    },
    Experiment {
        name: "sweep-profiles",
        help: "second table: MAP_SYNC across the profiles (PMCPY-A vs PMCPY-B, write)",
        stem: "sweep_profiles_mapsync",
        key: "profile,variant,nprocs",
        cols: &[WRITE_S],
        grid: |ctx| {
            let p = ctx.procs[0];
            let mut rows = vec![];
            for mc in &ctx.profiles {
                let cfg = CellConfig::paper_on(p, ctx.real_bytes, mc.clone());
                for (variant, lib) in [
                    ("A", PmemcpyLib::variant_a()),
                    ("B", PmemcpyLib::variant_b()),
                ] {
                    let key = format!("{},{variant},{p}", mc.profile_name);
                    rows.push(Row::lib(key, Box::new(lib), cfg.clone()));
                }
            }
            rows
        },
        all_bytes: 8 << 20,
        all_procs: &[8],
        ..BASE
    },
    Experiment {
        name: "volume",
        help: "PMCPY-A write/read vs modelled volume, 5-80 GB (bandwidth-bound: linear)",
        stem: "volume_scaling",
        key: "modelled_gb",
        grid: |ctx| {
            // Fix the real volume; scale the model.
            let real = 16 << 20;
            let actual = Domain3dSpec::paper(24, real).actual_bytes();
            let row = |gb: u64| {
                let mut cfg = CellConfig::paper_on(24, real, ctx.machine.clone());
                cfg.byte_scale = ((gb << 30) / actual).max(1);
                Row::lib(gb, Box::new(PmemcpyLib::variant_a()), cfg)
            };
            [5, 10, 20, 40, 80].map(row).into()
        },
        ..ABLATION
    },
];

/// The first table row of a command.
pub fn find(name: &str) -> Option<&'static Experiment> {
    TABLE.iter().find(|e| e.name == name)
}

/// Measure one experiment: run every cell of its grid, printing each row
/// as it lands.
pub fn measure(exp: &Experiment, ctx: &Ctx) -> Result<RunReport, String> {
    let mut report = RunReport {
        name: exp.stem.to_string(),
        real_bytes: ctx.real_bytes,
        rows: vec![],
    };
    for Row { key, cell } in (exp.grid)(ctx) {
        let outcome = match cell {
            Cell::Domain { lib, cfg } => {
                let run = |&dir: &Direction| {
                    let registry = exp.metrics.then(MetricsRegistry::new);
                    run_cell(lib.as_ref(), dir, &cfg, None, registry)
                };
                Outcome {
                    key,
                    cells: exp.dirs.iter().map(run).collect(),
                    storm: None,
                }
            }
            Cell::Storm(spec) => {
                report.real_bytes = spec.total_keys() * spec.value_bytes;
                // Sampled self-verification: every 97th key per rank.
                let (cell, shape) =
                    run_storm_cell(spec, "", &Options::default(), 97, &ctx.machine)?;
                Outcome {
                    key,
                    cells: vec![cell],
                    storm: Some(shape),
                }
            }
        };
        print!("{:<28}", outcome.key);
        for Col(name, get) in exp.cols.iter().chain(exp.shown) {
            print!(" {name}={}", get(&outcome));
        }
        println!();
        report.rows.push(outcome);
    }
    Ok(report)
}

/// The CSV an experiment's columns make of a report.
pub fn csv(exp: &Experiment, report: &RunReport) -> String {
    let mut out = exp.key.to_string();
    for Col(name, _) in exp.cols {
        out.push_str(&format!(",{name}"));
    }
    out.push('\n');
    for row in &report.rows {
        out.push_str(&row.key);
        for Col(_, get) in exp.cols {
            out.push_str(&format!(",{}", get(row)));
        }
        out.push('\n');
    }
    out
}

/// Run one table row end to end: measure, write `results/<stem>.csv` and
/// `results/BENCH_<bench>.json`, then fail on any read-back mismatch or a
/// violated gate. The files are written before the verdict so a failing CI
/// run still uploads what it measured.
pub fn run(exp: &Experiment, ctx: &Ctx) -> Result<(), String> {
    println!("## {}: {}", exp.name, exp.help);
    let report = measure(exp, ctx)?;
    if !exp.cols.is_empty() {
        write_file(&format!("results/{}.csv", exp.stem), &csv(exp, &report))?;
    }
    if let Some(bench) = exp.bench {
        write_file(&format!("results/BENCH_{bench}.json"), &report.to_json())?;
    }
    for row in &report.rows {
        if let Some(cell) = row.cells.iter().find(|c| c.mismatches != 0) {
            return Err(format!(
                "{} row {:?}: {} corrupted {} elements",
                exp.name,
                row.key,
                cell.direction.as_str(),
                cell.mismatches
            ));
        }
    }
    if let Some(finish) = exp.finish {
        finish(ctx, &report)?;
    }
    println!();
    Ok(())
}

/// Write `contents` to `path`, creating parent directories as needed.
/// Errors carry the path so the caller can print an actionable message and
/// exit nonzero instead of panicking.
fn write_file(path: &str, contents: &str) -> Result<(), String> {
    let ctx = |e: std::io::Error| format!("{path}: {e}");
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent).map_err(ctx)?;
    }
    std::fs::write(path, contents).map_err(ctx)?;
    println!("[wrote {path}]");
    Ok(())
}

/// What fig6/fig7 print beyond their rows: the table, chart and shape
/// checks and the phase waterfall; a traced re-run of the headline cell
/// writes `results/<name>_trace.json`.
fn figure(ctx: &Ctx, report: &RunReport) -> Result<(), String> {
    use pmem_sim::{chrome_trace_json, CollectingSink, DRAIN_LANE};
    let direction = report.rows[0].cells[0].direction;
    let title = match direction {
        Direction::Write => "Figure 6: writing a 40 GB (modelled) 3-D domain to PMEM",
        Direction::Read => "Figure 7: reading a 40 GB (modelled) 3-D domain from PMEM",
    };
    let real_mb = report.real_bytes >> 20;
    println!("{}", report.table(&format!("{title} ({real_mb} MB real)")));
    println!("{}", report.ascii_chart());
    println!("{}", render_checks(&check_shape(report, direction)));

    // Where the virtual time goes: phase waterfall at the paper's headline
    // 24-rank point, straight from the metrics registries the sweep ran
    // with. pMEMCPY's staging rows are zero by construction.
    let last = *ctx.procs.last().expect("Ctx::procs is never empty");
    let waterfall_procs = if ctx.procs.contains(&24) { 24 } else { last };
    println!("{}", render_waterfall(report, waterfall_procs));

    // Traced re-run of the paper's headline cell (PMCPY-A at 24 ranks),
    // exported for Perfetto. Tracing never changes the numbers.
    let sink = CollectingSink::new();
    let cfg = CellConfig::paper_on(24, ctx.real_bytes.min(16 << 20), ctx.machine.clone());
    let lib = PmemcpyLib::variant_a();
    run_cell(&lib, direction, &cfg, Some(sink.clone()), None);
    let spans = sink.take();
    let name = &report.name;
    let mut lanes: Vec<(u64, String)> = (0..24).map(|r| (r, format!("rank {r}"))).collect();
    if spans.iter().any(|s| s.lane == DRAIN_LANE) {
        lanes.push((DRAIN_LANE, "drain (async)".to_string()));
    }
    let trace = chrome_trace_json(&spans, &lanes);
    write_file(&format!("results/{name}_trace.json"), &trace)
}

fn machine(ctx: &Ctx, _: &RunReport) -> Result<(), String> {
    let c = &ctx.machine;
    let gbs = |bw: u64| bw / 1_000_000_000;
    println!("device profile           {}", c.profile_name);
    println!("cores / SMT threads      {} / {}", c.cores, c.smt_threads);
    println!("PMEM read latency        {}", c.pmem_read_latency);
    println!("PMEM write latency       {}", c.pmem_write_latency);
    println!("PMEM read bandwidth      {} GB/s", gbs(c.pmem_read_bw));
    println!("PMEM write bandwidth     {} GB/s", gbs(c.pmem_write_bw));
    println!("DRAM bus bandwidth       {} GB/s", gbs(c.dram_bw));
    println!("syscall / page fault     {} / {}", c.syscall, c.page_fault);
    println!("MAP_SYNC page penalty    {}", c.map_sync_page);
    let eadr = if c.needs_flush {
        ""
    } else {
        " (eADR: flushes free)"
    };
    println!(
        "flush primitive cost     clwb {}+{}/line, ntstore {}+{}/line{eadr}",
        c.flush_base, c.flush_per_line, c.ntstore_base, c.ntstore_per_line
    );
    println!("put persist primitive    {}", c.flush_strategy.name());
    Ok(())
}

/// For every (profile, #procs) the device's own primitive races both forced
/// ones: it must never lose, and — the reason a device declares its own — on
/// at least one non-default profile the worse forced primitive has to trail
/// it by a measurable virtual-time margin.
fn profiles_gate(ctx: &Ctx, report: &RunReport) -> Result<(), String> {
    // Best (profile, worst_forced/own) margin seen on a non-default profile.
    let mut best_margin: Option<(&str, f64)> = None;
    for group in report.rows.chunks(3) {
        let own = &group[0].cells[0];
        let (profile, p) = (own.device_profile.as_str(), own.nprocs);
        let forced = group[1..].iter().map(|o| o.cells[0].time.as_secs_f64());
        let own_s = own.time.as_secs_f64();
        let min_forced = forced.clone().fold(f64::INFINITY, f64::min);
        if own_s > min_forced {
            return Err(format!(
                "{profile}'s own primitive lost at p={p}: {own_s:.6}s > forced {min_forced:.6}s"
            ));
        }
        let margin = forced.fold(0.0, f64::max) / own_s;
        if profile != "optane-gen1" && best_margin.is_none_or(|(_, m)| margin > m) {
            best_margin = Some((profile, margin));
        }
    }
    if ctx.profiles.iter().all(|p| p.profile_name == "optane-gen1") {
        return Ok(());
    }
    match best_margin {
        Some((name, margin)) if margin >= 1.005 => {
            println!(
                "primitive margin: {name} worst-forced/own = {margin:.4}x (gate >= 1.005x: OK)"
            );
            Ok(())
        }
        other => Err(format!(
            "no non-default profile's own primitive showed a measurable win \
             (best worst-forced/own margin: {other:?}, need >= 1.005x)"
        )),
    }
}

/// The resizable metadata directory must land every key (the sampled
/// read-back is checked by [`run`]) and keep the longest persistent chain
/// within the design bound.
fn storm_gate(ctx: &Ctx, report: &RunReport) -> Result<(), String> {
    /// With `SPLIT_FACTOR = 2` the settled load factor is at most ~1
    /// entry per 2 buckets; at millions of keys the Poisson tail puts
    /// P(max chain > 8) well under 1%.
    const MAX_CHAIN_BOUND: u64 = 8;
    let shape = report.rows[0].storm.as_ref().expect("a storm row");
    let expected = report.rows[0].cells[0].nprocs * ctx.storm_keys;
    if shape.len != expected {
        return Err(format!(
            "creation storm lost keys: {} stored, {expected} expected",
            shape.len
        ));
    }
    if shape.max_chain > MAX_CHAIN_BOUND {
        return Err(format!(
            "creation storm chain bound violated: max chain {} > {MAX_CHAIN_BOUND}",
            shape.max_chain
        ));
    }
    Ok(())
}

/// One rank stores the domain through the core API, then drains it to a
/// page-cache burst buffer on its own lane: not a cell, so it measures and
/// tabulates itself.
fn drain(ctx: &Ctx, _: &RunReport) -> Result<(), String> {
    use mpi_sim::{Comm, World};
    use pmem_sim::{Machine, PersistenceMode, PmemDevice};
    use pmemcpy::{MmapTarget, Pmem};
    use simfs::{MountMode, SimFs};
    use std::sync::Arc;
    let spec = Domain3dSpec::paper(1, ctx.real_bytes);
    let cell = ctx.cell(1);
    let machine = Machine::new(MachineConfig {
        byte_scale: cell.byte_scale,
        ..cell.machine
    });
    let device = || {
        let size = (ctx.real_bytes * 3 + (32 << 20)) as usize;
        PmemDevice::new(Arc::clone(&machine), size, PersistenceMode::Fast)
    };
    let pmem_dev = device();
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let mut pmem = Pmem::new();
    let e = |e: pmemcpy::PmemCpyError| format!("ablate-drain: {e}");
    pmem.mmap(MmapTarget::DevDax(&pmem_dev), &comm).map_err(e)?;
    let decomp = spec.decompose();
    for (v, name) in spec.var_names().iter().enumerate() {
        let block = workloads::generate_block(&decomp, v, 0);
        pmem.alloc::<f64>(name, &decomp.global_dims).map_err(e)?;
        pmem.store_block(name, &block, &[0, 0, 0], &decomp.global_dims)
            .map_err(e)?;
    }
    let store_s = pmem.now().as_secs_f64();
    let bb = SimFs::mount_all(device(), MountMode::PageCache);
    let report = pmem.drain_to_storage(&bb, "/bb").map_err(e)?;
    let drain_s = report.drain_time.as_secs_f64();
    println!("store (PMEM)     {store_s:>8.3}s");
    println!(
        "drain (async)    {drain_s:>8.3}s   {} keys, {:.1} GB modelled",
        report.keys,
        machine.stats.snapshot().storage_bytes_written as f64 / 1e9,
    );
    println!(
        "app clock after drain: {} (unchanged — drain is asynchronous)",
        pmem.now()
    );
    pmem.munmap().map_err(e)?;
    let csv = format!("phase,seconds\nstore,{store_s:.6}\ndrain,{drain_s:.6}\n");
    write_file("results/ablate_drain.csv", &csv)
}
