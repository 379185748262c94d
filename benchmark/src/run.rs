//! Running one workload in this process: noise discipline, the iteration
//! loop, and turning iterations into named metrics.
//!
//! Noise discipline: the process pins itself to the first CPU of its affinity
//! mask before any rank thread exists (the deterministic scheduler runs one
//! thread at a time anyway; unpinned, cross-core futex wake-ups made the
//! 8×8192 storm take 9.2–13.8 s instead of 3.64–3.76 s). Every iteration runs
//! on a fresh, pre-touched device; warm-up iterations come first; host
//! numbers are the median of the measured iterations with quartiles and N.

use crate::comparator;
use crate::defs::{self, ClockKind};
use crate::json;
use crate::ladder;
use crate::layers::{self, Values};
use crate::stats;
use crate::workloads::{IterCfg, Iteration, Scale, Workload};
use std::time::Instant;

/// Pin the calling thread — and so every thread it spawns later — to the
/// first CPU it is allowed on. `false` where that is not possible; the report
/// then carries `pinned: false` and host numbers are noisier.
#[cfg(target_os = "linux")]
pub fn pin_to_first_cpu() -> bool {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `bytes` bytes, which is
    // what the call fills; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return false;
    }
    let Some(word) = mask.iter().position(|w| *w != 0) else {
        return false;
    };
    let bit = mask[word].trailing_zeros();
    let mut one = [0u64; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of `bytes` bytes that the call only
    // reads; pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, bytes, one.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_first_cpu() -> bool {
    false
}

/// Peak resident set of this process in MB (`VmHWM`); 0 where `/proc` has no
/// such line.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct MetricValue {
    pub name: &'static str,
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    /// Samples behind the value.
    pub n: usize,
    /// What else a reader needs: which percentile a tail is, and so on.
    pub note: String,
}

impl MetricValue {
    fn single(name: &'static str, value: f64, n: usize, note: impl Into<String>) -> Self {
        MetricValue {
            name,
            value,
            q1: value,
            q3: value,
            n,
            note: note.into(),
        }
    }

    fn median_of(name: &'static str, samples: &[f64]) -> Self {
        let (q1, value, q3) = stats::quartiles(samples);
        MetricValue {
            name,
            value,
            q1,
            q3,
            n: samples.len(),
            note: String::new(),
        }
    }
}

/// The outcome of one process: one workload, one seed, traced or not.
pub struct Report {
    pub workload: &'static Workload,
    pub seed: u64,
    pub traced: bool,
    pub pinned: bool,
    pub nproc: usize,
    /// Measured iterations behind the host medians.
    pub iterations: usize,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<MetricValue>,
    /// Extra lines for the human reader (not metrics).
    pub remarks: Vec<String>,
    /// Spans of the traced iteration.
    pub spans: Vec<crate::spans::Span>,
    scale: Scale,
    /// Iterations started so far (part of every span id).
    started: u32,
}

/// How an iteration differs from the plain measured one.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Plain,
    Traced,
    Collapsed,
}

impl Report {
    /// Pin the process and start an empty report.
    fn start(workload: &'static Workload, seed: u64, traced: bool, scale: Scale) -> Report {
        // Read before pinning: afterwards the affinity mask holds one CPU.
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Report {
            workload,
            seed,
            traced,
            pinned: pin_to_first_cpu(),
            nproc,
            iterations: 0,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            remarks: Vec::new(),
            spans: Vec::new(),
            scale,
            started: 0,
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    fn next_cfg(&mut self, kind: Kind) -> IterCfg {
        let iteration = self.started;
        self.started += 1;
        IterCfg {
            seed: self.seed,
            iteration,
            traced: kind == Kind::Traced,
            collapse: kind == Kind::Collapsed,
            scale: self.scale,
        }
    }

    /// Run the next iteration and count its ops and failures.
    fn iteration(&mut self, kind: Kind) -> Iteration {
        let cfg = self.next_cfg(kind);
        let it = self.workload.run(&cfg);
        self.absorb(&it);
        it
    }

    /// Run the workload's crashing iteration, if it has one.
    fn crash_iteration(&mut self) -> Option<Iteration> {
        let cfg = self.next_cfg(Kind::Plain);
        let it = self.workload.run_crash(&cfg)?;
        self.absorb(&it);
        Some(it)
    }

    fn absorb(&mut self, it: &Iteration) {
        self.attempted += it.ops_attempted;
        self.failed += it.ops_failed;
        let room = 16usize.saturating_sub(self.failures.len());
        self.failures.extend(it.failures.iter().take(room).cloned());
    }

    /// Count a check of the harness's own.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Warm up, then measure plain iterations until `until` says stop.
    fn measure(&mut self, until: impl Fn(usize, f64) -> bool) -> Vec<Iteration> {
        for _ in 0..self.workload.warmups {
            self.iteration(Kind::Plain);
        }
        let started = Instant::now();
        let mut its: Vec<Iteration> = Vec::new();
        while !until(its.len(), started.elapsed().as_secs_f64()) {
            // Virtual latencies repeat exactly; only the last iteration's
            // samples are reported, so memory does not grow with N.
            if let Some(prev) = its.last_mut() {
                prev.put_sim_ns = Vec::new();
                prev.get_sim_ns = Vec::new();
            }
            its.push(self.iteration(Kind::Plain));
        }
        self.iterations = its.len();
        // Input size ends an iteration, so the virtual clock must repeat
        // exactly from iteration to iteration.
        self.check(its.iter().all(|it| it.sim_ns == its[0].sim_ns), || {
            let all: Vec<u64> = its.iter().map(|it| it.sim_ns).collect();
            format!("virtual clock differs between iterations: {all:?}")
        });
        its
    }
}

fn def_of(name: &str) -> &'static defs::Def {
    defs::end_to_end(name)
        .or_else(|| defs::per_layer(name))
        .unwrap_or_else(|| panic!("{name} is not a declared metric"))
}

/// Fewest measured iterations, however short `--seconds` is.
const MIN_ITERATIONS: usize = 3;

/// The untraced run: every end-to-end metric, no sink installed. Measures
/// until `seconds` of host time have gone by, at least [`MIN_ITERATIONS`].
pub fn end_to_end(workload: &'static Workload, seed: u64, seconds: f64, scale: Scale) -> Report {
    let mut report = Report::start(workload, seed, false, scale);
    let its = report.measure(|n, elapsed| n >= MIN_ITERATIONS && elapsed >= seconds);
    let last = its.last().expect("at least one measured iteration");

    let mut reopen_ns = last.reopen_sim_ns;
    // The crash idiom, once, after the last measured iteration.
    if let Some(crashed) = report.crash_iteration() {
        report.remarks.push(format!(
            "reopen_sim_s after clean close {:.9} sim_s, after crash() {:.9} sim_s (reported)",
            last.reopen_sim_ns as f64 / 1e9,
            crashed.reopen_sim_ns as f64 / 1e9
        ));
        reopen_ns = crashed.reopen_sim_ns;
    }

    let host: Vec<f64> = its.iter().map(|it| it.host_s).collect();
    let setup: Vec<f64> = its.iter().map(|it| it.setup_host_s).collect();
    let put_tail = stats::tail(&last.put_sim_ns);
    let get_tail = stats::tail(&last.get_sim_ns);
    let media = last.stats.pmem_bytes_written + last.stats.pmem_bytes_read;
    report.metrics = vec![
        MetricValue::single("sim_s", last.sim_ns as f64 / 1e9, its.len(), ""),
        MetricValue::median_of("host_s", &host),
        MetricValue::single("media_amp", stats::ratio(media, last.payload_bytes), 1, ""),
        MetricValue::single(
            "space_amp",
            stats::ratio(last.allocated_bytes, last.live_payload_bytes),
            1,
            "",
        ),
        MetricValue::single(
            "put_sim_p50_us",
            stats::p50(&last.put_sim_ns) as f64 / 1e3,
            last.put_sim_ns.len(),
            "",
        ),
        MetricValue::single(
            "put_sim_tail_us",
            put_tail.value as f64 / 1e3,
            put_tail.n,
            put_tail.percentile,
        ),
        MetricValue::single(
            "get_sim_p50_us",
            stats::p50(&last.get_sim_ns) as f64 / 1e3,
            last.get_sim_ns.len(),
            "",
        ),
        MetricValue::single(
            "get_sim_tail_us",
            get_tail.value as f64 / 1e3,
            get_tail.n,
            get_tail.percentile,
        ),
        MetricValue::single("reopen_sim_s", reopen_ns as f64 / 1e9, 1, ""),
        MetricValue::median_of("setup_s", &setup),
        MetricValue::single("peak_rss_mb", peak_rss_mb(), 1, "VmHWM"),
    ];
    report
}

/// Untraced reference iterations of a traced run (tracing overhead and the
/// scheduler share are measured against their median).
const TRACE_REFERENCE_ITERATIONS: usize = 3;
/// Iterations of the rank-collapse probe; the fastest is reported.
const COLLAPSE_ITERATIONS: usize = 2;

/// The traced run: every per-layer metric. A few untraced iterations for
/// reference, one iteration with a `MetricsRegistry` installed and full
/// spans, the rank-collapse probe, the ladder, the comparator pass.
pub fn per_layer(workload: &'static Workload, seed: u64, scale: Scale) -> Report {
    let mut report = Report::start(workload, seed, true, scale);
    let its = report.measure(|n, _| n >= TRACE_REFERENCE_ITERATIONS);
    let host: Vec<f64> = its.iter().map(|it| it.host_s).collect();
    let untraced_host_s = stats::median(&host);
    // The probe below compares fastest with fastest: interference only ever
    // adds time, and a ratio of two short samples needs all the help it gets.
    let fastest_host_s = host.iter().copied().fold(f64::INFINITY, f64::min);
    let untraced_sim_ns = its[0].sim_ns;
    drop(its);

    let mut traced = report.iteration(Kind::Traced);
    // Observers only read clocks: the traced virtual clock must equal the
    // untraced one.
    report.check(traced.sim_ns == untraced_sim_ns, || {
        format!(
            "traced sim_s {} ns != untraced {untraced_sim_ns} ns",
            traced.sim_ns
        )
    });
    let mut v = Values::default();
    layers::counters(&traced, &mut v);
    layers::span_metrics(&traced.spans, traced.reopen_mmap_sim_ns, &mut v);
    let residual = v.get("core.tiling_residual_ns");
    report.check(residual == Some(0.0), || {
        format!("phase totals do not tile the rank lanes: residual {residual:?} ns")
    });
    let overhead = (traced.host_s - untraced_host_s) / untraced_host_s * 100.0;
    v.set("pmem_sim.metrics_on.host_overhead_pct", overhead);
    report.remarks.push(format!(
        "tracing overhead: traced host_s {:.4} s vs untraced median {:.4} s = {:+.1} % (sim_s equal: {})",
        traced.host_s,
        untraced_host_s,
        overhead,
        traced.sim_ns == untraced_sim_ns
    ));
    report.spans = std::mem::take(&mut traced.spans);
    let timed_ops = traced.timed_ops;
    drop(traced);

    // Rank-collapse probe: the same op stream from one rank.
    let collapse_host_s = (0..COLLAPSE_ITERATIONS)
        .map(|_| report.iteration(Kind::Collapsed).host_s)
        .fold(f64::INFINITY, f64::min);
    v.set("mpi_sim.collapse.host_s", collapse_host_s);
    // A share, so clamped: where the collapsed job is *slower* (the domain
    // cells, whose one rank moves 24x larger blocks) the probe says nothing
    // about scheduling, and `mpi_sim.collapse.host_s` beside it shows why.
    v.set(
        "mpi_sim.sched.host_share",
        (1.0 - collapse_host_s / fastest_host_s).clamp(0.0, 1.0),
    );

    ladder::run(&mut v);
    // What one yielding charge costs at this workload's world size.
    let handoff_ns = v
        .get(match workload.ranks {
            1 => "mpi_sim.charge_solo.host_ns",
            2..=8 => "mpi_sim.handoff8.host_ns",
            _ => "mpi_sim.handoff24.host_ns",
        })
        .unwrap_or(f64::NAN);
    v.set(
        "mpi_sim.implied_handoffs_per_op",
        ((fastest_host_s - collapse_host_s) * 1e9 / handoff_ns / timed_ops as f64).max(0.0),
    );

    let mut pass = Iteration::default();
    comparator::run(&mut v, &mut pass);
    report.absorb(&pass);
    report.remarks.push(comparator::PAPER_REFERENCE.to_string());

    for name in v.missing() {
        report.check(false, || {
            format!("per-layer metric {name} was not measured")
        });
    }
    report.metrics = defs::PER_LAYER
        .iter()
        .map(|d| MetricValue::single(d.name, v.get(d.name).unwrap_or(0.0), 1, ""))
        .collect();
    report
}

/// The allocator settings `run.sh` exports (see there for why), as found in
/// this process's environment: a report says how it was produced.
fn malloc_settings() -> String {
    [
        "MALLOC_ARENA_MAX",
        "MALLOC_MMAP_MAX_",
        "MALLOC_TRIM_THRESHOLD_",
    ]
    .map(|k| std::env::var(k).unwrap_or_else(|_| "default".into()))
    .join("/")
}

/// The human-readable report: every metric by name with unit, clock, sample
/// count, quartiles and bound.
pub fn render(report: &Report) -> String {
    let mut out = format!(
        "== {} seed={} {} | pinned={} nproc={} malloc={} warmups={} iterations={}\n",
        report.workload.name,
        report.seed,
        if report.traced {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
        report.pinned,
        report.nproc,
        malloc_settings(),
        report.workload.warmups,
        report.iterations
    );
    if !report.pinned {
        out.push_str(
            "warning: pinned:false - sched_setaffinity unavailable, host metrics are noisier\n",
        );
    }
    for m in &report.metrics {
        let d = def_of(m.name);
        let mut line = format!(
            "{:<44} {:>16} {:<7} {:<5} n={}",
            m.name,
            json::number(m.value),
            d.unit,
            d.clock.as_str(),
            m.n
        );
        if d.clock == ClockKind::Host && m.n > 1 {
            line.push_str(&format!(
                " q1={} q3={} spread={:.2}%",
                json::number(m.q1),
                json::number(m.q3),
                stats::spread(m.q1, m.value, m.q3) * 100.0
            ));
        }
        if d.bound > 0.0 {
            line.push_str(&format!(" bound={}%", d.bound * 100.0));
        }
        if !m.note.is_empty() {
            line.push_str(&format!(" ({})", m.note));
        }
        out.push_str(&line);
        out.push('\n');
    }
    out.push_str(&format!(
        "ops_attempted {}  ops_failed {}\n",
        report.attempted, report.failed
    ));
    for f in &report.failures {
        out.push_str(&format!("FAILED: {f}\n"));
    }
    for r in &report.remarks {
        out.push_str(&format!("note: {r}\n"));
    }
    out
}

/// The last line of standard output: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value with all its digits.
pub fn result_line(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(m.name),
                json::number(m.value),
                json::quote(def_of(m.name).unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct(),
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    )
}

/// The detailed result file `--compare` reads: per metric the value, its
/// quartiles, N, unit and clock.
pub fn result_file(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let d = def_of(m.name);
            format!(
                "    {}: {{\"value\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": {}, \"clock\": {}}}",
                json::quote(m.name),
                json::number(m.value),
                json::number(m.q1),
                json::number(m.q3),
                m.n,
                json::quote(d.unit),
                json::quote(d.clock.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"traced\": {},\n  \"pinned\": {},\n  \"nproc\": {},\n  \"iterations\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"metrics\": {{\n{}\n  }}\n}}\n",
        json::quote(report.workload.name),
        report.seed,
        report.traced,
        report.pinned,
        report.nproc,
        report.iterations,
        report.attempted,
        report.failed,
        metrics.join(",\n")
    )
}
