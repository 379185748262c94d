//! Reporting: tables, ASCII charts, CSV files, and shape checks against the
//! paper's claims.

use crate::sweep::{CellResult, Direction, StormShape};
use pmem_sim::trace::json_escape;
use pmem_sim::{SimTime, TraceSummary};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// One measured row of an experiment: its CSV key, the cells that ran for
/// it (one per direction, in the experiment's direction order), and the
/// namespace shape when the row was a creation storm.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub key: String,
    pub cells: Vec<CellResult>,
    pub storm: Option<StormShape>,
}

/// What one experiment measured, and the machine-readable run report it
/// serializes to: every cell's virtual times, media counters and metrics
/// snapshot in a stable-schema JSON document (`results/BENCH_*.json`),
/// consumed by the `perfgate` regression gate.
///
/// Everything in the JSON is virtual or modelled — wall-clock never enters
/// the document — so under [`mpi_sim::SchedMode::Deterministic`] two runs
/// of the same configuration produce byte-identical reports on any host.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Report name, e.g. `fig6_writes`.
    pub name: String,
    /// Real bytes generated per cell (the modelled volume is 40 GB).
    pub real_bytes: u64,
    pub rows: Vec<Outcome>,
}

impl RunReport {
    /// Every cell, in run order.
    pub fn cells(&self) -> impl Iterator<Item = &CellResult> {
        self.rows.iter().flat_map(|r| &r.cells)
    }

    pub fn get(&self, library: &str, nprocs: u64) -> Option<&CellResult> {
        self.cells()
            .find(|c| c.library == library && c.nprocs == nprocs)
    }

    /// Distinct values of one cell field, in first-seen order.
    fn axis<'a, T: PartialEq>(&'a self, of: impl Fn(&'a CellResult) -> T) -> Vec<T> {
        let mut out = vec![];
        for v in self.cells().map(of) {
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    /// Render the cells as a table (rows = libraries, cols = #procs).
    pub fn table(&self, title: &str) -> String {
        let procs = self.axis(|c| c.nprocs);
        let mut out = String::new();
        let _ = writeln!(out, "## {title}");
        let _ = write!(out, "{:<10}", "library");
        for p in &procs {
            let _ = write!(out, " {:>9}", format!("p={p}"));
        }
        let _ = writeln!(out);
        for lib in self.axis(|c| c.library.as_str()) {
            let _ = write!(out, "{lib:<10}");
            for &p in &procs {
                match self.get(lib, p) {
                    Some(c) => {
                        let _ = write!(out, " {:>8.3}s", c.time.as_secs_f64());
                    }
                    None => {
                        let _ = write!(out, " {:>9}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Render an ASCII bar chart per process count.
    pub fn ascii_chart(&self) -> String {
        let max = self
            .cells()
            .map(|c| c.time)
            .fold(SimTime::ZERO, SimTime::max)
            .as_secs_f64()
            .max(1e-9);
        let mut out = String::new();
        for p in self.axis(|c| c.nprocs) {
            let _ = writeln!(out, "-- {} procs --", p);
            for c in self.cells().filter(|c| c.nprocs == p) {
                let secs = c.time.as_secs_f64();
                let bars = ((secs / max) * 50.0).round() as usize;
                let _ = writeln!(
                    out,
                    "{:<10} {:>8.3}s |{}",
                    c.library,
                    secs,
                    "#".repeat(bars)
                );
            }
        }
        out
    }

    /// Speedup of `a` over `b` at `nprocs` (time_b / time_a).
    pub fn speedup(&self, a: &str, b: &str, nprocs: u64) -> Option<f64> {
        let ta = self.get(a, nprocs)?.time.as_secs_f64();
        let tb = self.get(b, nprocs)?.time.as_secs_f64();
        if ta <= 0.0 {
            return None;
        }
        Some(tb / ta)
    }

    /// Serialize to the versioned BENCH JSON schema. Key order is fixed
    /// (literal schema + `BTreeMap` iteration), so the output is
    /// bit-reproducible for deterministic runs.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n\"schema\":{REPORT_SCHEMA},\n\"name\":\"{}\",\n\"real_bytes\":{},\n\"cells\":[",
            json_escape(&self.name),
            self.real_bytes
        );
        for (i, c) in self.cells().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            out.push_str(&cell_json(c));
        }
        out.push_str("\n]\n}\n");
        out
    }
}

/// The paper's qualitative claims for one figure, checked against results.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeCheck {
    pub claim: String,
    pub value: f64,
    pub pass: bool,
}

/// §4.1's claims at 24 procs, per direction: `(a, b, paper, accepted)`
/// passes when `a` is at least `accepted` times faster than `b`; `paper` is
/// the factor the paper reports. The last row of each is MAP_SYNC erasing
/// the win: PMCPY-B must be ADIOS-or-slower.
type Claim = (&'static str, &'static str, &'static str, f64);
const FIG6_CLAIMS: [Claim; 4] = [
    ("PMCPY-A", "NetCDF", "~2.5x", 1.5),
    ("PMCPY-A", "pNetCDF", "~2.5x", 1.5),
    ("PMCPY-A", "ADIOS", ">=1.15x", 1.10),
    ("ADIOS", "PMCPY-B", "~1x: MAP_SYNC erases the win", 0.95),
];
const FIG7_CLAIMS: [Claim; 4] = [
    ("PMCPY-A", "NetCDF", "~5x", 2.0),
    ("PMCPY-A", "pNetCDF", "~5x", 2.0),
    ("PMCPY-A", "ADIOS", "~2x", 1.3),
    ("ADIOS", "PMCPY-B", "~1x: MAP_SYNC erases the win", 0.9),
];

/// Check one figure's cells against §4.1's claims for its direction.
pub fn check_shape(fig: &RunReport, direction: Direction) -> Vec<ShapeCheck> {
    let claims = match direction {
        Direction::Write => FIG6_CLAIMS,
        Direction::Read => FIG7_CLAIMS,
    };
    let dir = direction.as_str();
    let mut out = vec![];
    for (a, b, paper, accepted) in claims {
        if let Some(value) = fig.speedup(a, b, 24) {
            out.push(ShapeCheck {
                claim: format!("{dir}: {a} beats {b} by {paper} (>={accepted}x accepted)"),
                value,
                pass: value >= accepted,
            });
        }
    }
    out.extend(check_flattening(fig, "PMCPY-A"));
    out
}

/// "the effects of concurrency wear off after 24 cores": time at 48 procs is
/// not much better than at 24, while 8 -> 24 shows improvement.
fn check_flattening(fig: &RunReport, lib: &str) -> Vec<ShapeCheck> {
    let mut out = vec![];
    if let (Some(t8), Some(t24), Some(t48)) = (fig.get(lib, 8), fig.get(lib, 24), fig.get(lib, 48))
    {
        let slope = t8.time.as_secs_f64() / t24.time.as_secs_f64();
        out.push(ShapeCheck {
            claim: format!("{lib}: scales 8->24 procs (t8/t24 > 1.05)"),
            value: slope,
            pass: slope > 1.05,
        });
        let flat = t48.time.as_secs_f64() / t24.time.as_secs_f64();
        out.push(ShapeCheck {
            claim: format!("{lib}: flattens past 24 procs (t48/t24 >= 0.85)"),
            value: flat,
            pass: flat >= 0.85,
        });
    }
    out
}

/// Render the traced phase breakdown that accompanies a figure: where the
/// virtual time of one representative cell went, as percentages within
/// each phase category plus the full aggregated table.
pub fn render_phase_breakdown(title: &str, summary: &TraceSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "## {title}");
    for cat in ["put", "get", "mpi", "pmdk", "drain"] {
        let line = summary.breakdown(cat);
        if !line.is_empty() {
            let _ = writeln!(out, "{cat:<6} {line}");
        }
    }
    let _ = writeln!(out);
    let _ = write!(out, "{summary}");
    out
}

/// Schema version stamped into every BENCH JSON report. Bump it whenever a
/// field is renamed, removed, or changes meaning; `perfgate` refuses to
/// compare reports across schema versions.
///
/// Schema 2 added `device_profile` and `flush_strategy` per cell.
pub const REPORT_SCHEMA: u64 = 2;

fn cell_json(c: &CellResult) -> String {
    let s = &c.stats;
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"library\":\"{}\",\"direction\":\"{}\",\"nprocs\":{},\"device_profile\":\"{}\",\"flush_strategy\":\"{}\",\"virtual_time_ns\":{}",
        json_escape(&c.library),
        c.direction.as_str(),
        c.nprocs,
        json_escape(&c.device_profile),
        json_escape(&c.flush_strategy),
        c.time.as_nanos()
    );
    out.push_str(",\"rank_time_ns\":[");
    for (i, t) in c.rank_times.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", t.as_nanos());
    }
    out.push(']');
    // Derived media accounting, formatted with a fixed precision so the
    // text is stable. Write amplification is media bytes over logical
    // payload bytes (both byte-scaled); flush/fence rates are per KiB of
    // media writes.
    let logical = c.metrics.counter("put.logical_bytes");
    let media = c.metrics.counter("put.media_bytes");
    let write_amp = if logical > 0 {
        media as f64 / logical as f64
    } else {
        0.0
    };
    let per_kib = |n: u64| {
        if s.pmem_bytes_written > 0 {
            n as f64 * 1024.0 / s.pmem_bytes_written as f64
        } else {
            0.0
        }
    };
    let _ = write!(
        out,
        ",\"derived\":{{\"write_amplification\":{write_amp:.6},\"flushes_per_kib\":{:.6},\"fences_per_kib\":{:.6}}}",
        per_kib(s.flush_calls),
        per_kib(s.fences)
    );
    let _ = write!(
        out,
        ",\"stats\":{{\"pmem_bytes_written\":{},\"pmem_bytes_read\":{},\"dram_bytes_copied\":{},\"syscalls\":{},\"page_faults\":{},\"map_sync_page_syncs\":{},\"flush_calls\":{},\"fences\":{},\"net_bytes\":{},\"net_messages\":{},\"storage_bytes_written\":{},\"pool_txs\":{},\"alloc_passes\":{}}}",
        s.pmem_bytes_written,
        s.pmem_bytes_read,
        s.dram_bytes_copied,
        s.syscalls,
        s.page_faults,
        s.map_sync_page_syncs,
        s.flush_calls,
        s.fences,
        s.net_bytes,
        s.net_messages,
        s.storage_bytes_written,
        s.pool_txs,
        s.alloc_passes
    );
    let _ = write!(out, ",\"metrics\":{}", c.metrics.to_json());
    let _ = write!(out, ",\"mismatches\":{}}}", c.mismatches);
    out
}

/// Render the phase waterfall for one process count: rows are phase labels
/// (mean attributed virtual time per rank), columns are libraries. The
/// staging rows at the bottom contrast the DRAM bytes each library moves
/// through staging/rearrangement passes — pMEMCPY's columns are zero there,
/// which is the paper's core architectural claim.
pub fn render_waterfall(report: &RunReport, nprocs: u64) -> String {
    let cells: Vec<&CellResult> = report
        .cells()
        .filter(|c| c.nprocs == nprocs && !c.metrics.phases.is_empty())
        .collect();
    let mut out = String::new();
    if cells.is_empty() {
        return out;
    }
    let _ = writeln!(
        out,
        "## Phase waterfall at {nprocs} procs ({}) — mean virtual ms per rank",
        report.name
    );
    let labels: BTreeSet<&str> = cells
        .iter()
        .flat_map(|c| c.metrics.phases.keys().map(|(_, name)| name.as_str()))
        .collect();
    let _ = write!(out, "{:<16}", "phase");
    for c in &cells {
        let _ = write!(out, " {:>10}", c.library);
    }
    let _ = writeln!(out);
    let per_rank_ms = |c: &CellResult, label: &str| {
        let total: SimTime = c
            .metrics
            .phases
            .iter()
            .filter(|((_, name), _)| name == label)
            .map(|(_, t)| *t)
            .sum();
        total.as_nanos() as f64 / nprocs as f64 / 1e6
    };
    for label in &labels {
        let _ = write!(out, "{label:<16}");
        for c in &cells {
            let _ = write!(out, " {:>10.3}", per_rank_ms(c, label));
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<16}", "= attributed");
    for c in &cells {
        let total: SimTime = c.metrics.phases.values().copied().sum();
        let _ = write!(
            out,
            " {:>10.3}",
            total.as_nanos() as f64 / nprocs as f64 / 1e6
        );
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<16}", "job time");
    for c in &cells {
        let _ = write!(out, " {:>10.3}", c.time.as_nanos() as f64 / 1e6);
    }
    let _ = writeln!(out);
    for (row, counter) in [
        ("staged MiB", "stage.bytes"),
        ("rearranged MiB", "rearrange.bytes"),
    ] {
        let _ = write!(out, "{row:<16}");
        for c in &cells {
            let mib = c.metrics.counter(counter) as f64 / (1u64 << 20) as f64;
            let _ = write!(out, " {:>10.3}", mib);
        }
        let _ = writeln!(out);
    }
    out
}

/// Render shape checks.
pub fn render_checks(checks: &[ShapeCheck]) -> String {
    let mut out = String::new();
    for c in checks {
        let _ = writeln!(
            out,
            "[{}] {:<65} value={:.2}",
            if c.pass { "PASS" } else { "FAIL" },
            c.claim,
            c.value
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::StatsSnapshot;

    fn cell(lib: &str, p: u64, secs: f64) -> CellResult {
        CellResult {
            library: lib.into(),
            direction: Direction::Write,
            nprocs: p,
            device_profile: "optane-gen1".into(),
            flush_strategy: "clwb".into(),
            time: SimTime::from_secs_f64(secs),
            rank_times: vec![SimTime::from_secs_f64(secs); p as usize],
            stats: StatsSnapshot::default(),
            metrics: pmem_sim::MetricsSnapshot::default(),
            mismatches: 0,
        }
    }

    fn fig() -> RunReport {
        let mut rows = vec![];
        for &p in &[8u64, 24, 48] {
            // Shape resembling the paper.
            let base = 8.0 * 24.0 / p.min(24) as f64 / 3.0;
            for (lib, factor) in [
                ("PMCPY-A", 1.0),
                ("ADIOS", 1.2),
                ("PMCPY-B", 1.3),
                ("NetCDF", 2.6),
                ("pNetCDF", 2.5),
            ] {
                rows.push(Outcome {
                    key: format!("{lib},{p}"),
                    cells: vec![cell(lib, p, base * factor)],
                    storm: None,
                });
            }
        }
        RunReport {
            name: "test".into(),
            real_bytes: 0,
            rows,
        }
    }

    #[test]
    fn speedup_math() {
        let f = fig();
        let s = f.speedup("PMCPY-A", "NetCDF", 24).unwrap();
        assert!((s - 2.6).abs() < 1e-9);
    }

    #[test]
    fn paper_like_shape_passes_all_checks() {
        let f = fig();
        let checks = check_shape(&f, Direction::Write);
        assert!(!checks.is_empty());
        assert!(checks.iter().all(|c| c.pass), "{}", render_checks(&checks));
    }

    #[test]
    fn inverted_results_fail_checks() {
        let mut f = fig();
        for c in f.rows.iter_mut().flat_map(|r| &mut r.cells) {
            if c.library == "PMCPY-A" {
                c.time = SimTime::from_secs_f64(100.0);
            }
        }
        let checks = check_shape(&f, Direction::Write);
        assert!(checks.iter().any(|c| !c.pass));
    }

    #[test]
    fn renders_phase_breakdown() {
        use pmem_sim::TraceSpan;
        use std::borrow::Cow;
        let spans = vec![
            TraceSpan {
                cat: "put",
                name: Cow::Borrowed("put.memcpy"),
                lane: 0,
                start: SimTime(0),
                dur: SimTime(710),
                arg: None,
            },
            TraceSpan {
                cat: "put",
                name: Cow::Borrowed("put.serialize"),
                lane: 0,
                start: SimTime(710),
                dur: SimTime(290),
                arg: None,
            },
        ];
        let text = render_phase_breakdown("trace", &TraceSummary::from_spans(&spans));
        assert!(text.contains("put.memcpy 71.0%"), "{text}");
        assert!(text.contains("put.serialize 29.0%"), "{text}");
    }

    #[test]
    fn renders_table_chart_and_csv() {
        let f = fig();
        let t = f.table("test");
        assert!(t.contains("PMCPY-A") && t.contains("p=48"));
        let a = f.ascii_chart();
        assert!(a.contains("#"));
        let fig6 = crate::experiments::find("fig6").unwrap();
        let c = crate::experiments::csv(fig6, &f);
        assert_eq!(c.lines().count(), 1 + f.rows.len());
        assert!(c.starts_with("library,nprocs,seconds,"));
        assert!(c.contains("\nPMCPY-A,24,2.666667,0,0,0,0,0,0\n"), "{c}");
    }
}
