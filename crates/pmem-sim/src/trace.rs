//! Virtual-time tracing: spans measured on the simulated clocks.
//!
//! Every span records *simulated* nanoseconds — the interval a [`Clock`](crate::Clock)
//! advanced across while a modelled operation (a PMEM store stream, a
//! serialize pass, a barrier wait) ran. Because recording only *reads*
//! clocks and never advances them, enabling tracing cannot perturb any
//! virtual-time result: figure numbers are bit-identical with tracing on
//! or off.
//!
//! The subsystem is disabled by default and zero-cost in that state: the
//! instrumentation sites in [`crate::machine::Machine`] and the layers
//! above check a single `OnceLock` and bail out before building a span.
//! When a [`CollectingSink`] is installed, spans accumulate in it;
//! [`chrome_trace_json`] / [`TraceSummary`] are the two exporters (a Perfetto-loadable Chrome trace with one lane per
//! rank, and an aggregated percentile table for the benchmark reports).

use crate::sync::NoYieldMutex;
use crate::time::SimTime;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Lane id used by background burst-buffer drain activity, which runs on
/// its own clock rather than any rank's (see `pmemcpy`'s drain module).
pub const DRAIN_LANE: u64 = 1000;

/// Lane id used by the write-behind checkpoint lane: the background drain of
/// WAL records into the durable layout (see `pmemcpy`'s write_behind module).
pub const CKPT_LANE: u64 = 1001;

/// One completed operation on a virtual-time lane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceSpan {
    /// Coarse category: "prim" (machine primitives), "mpi", "pmdk",
    /// "put"/"get" (pmemcpy phases), "drain", ...
    pub cat: &'static str,
    /// Operation name within the category, e.g. "pmem.write" or "tx.commit".
    pub name: Cow<'static, str>,
    /// Lane the span belongs to — the rank id for rank clocks, or a
    /// reserved id like [`DRAIN_LANE`] for background activity.
    pub lane: u64,
    /// Virtual start instant.
    pub start: SimTime,
    /// Virtual duration (may be zero: the model can charge nothing).
    pub dur: SimTime,
    /// Optional numeric argument, e.g. ("bytes", 4096).
    pub arg: Option<(&'static str, u64)>,
}

/// The sink: collects completed spans from every rank thread into memory
/// for later export.
#[derive(Debug, Default)]
pub struct CollectingSink {
    /// Not a scheduler interaction point: an observer — every span carries
    /// its own lane and virtual start, so which rank records first decides
    /// only the (still run-to-run identical) emission order. As a point it
    /// would put a token hand-off back on every charge of every traced run.
    spans: NoYieldMutex<Vec<TraceSpan>>,
}

impl CollectingSink {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    pub fn is_empty(&self) -> bool {
        self.spans.lock().is_empty()
    }

    /// Drain all recorded spans, leaving the sink empty.
    pub fn take(&self) -> Vec<TraceSpan> {
        std::mem::take(&mut *self.spans.lock())
    }

    pub(crate) fn record(&self, span: TraceSpan) {
        self.spans.lock().push(span);
    }
}

/// Escape a string for embedding in a JSON string literal (shared by the
/// trace and metrics exporters).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Export spans as Chrome trace-event JSON (the format Perfetto and
/// `chrome://tracing` load). Each lane becomes one `tid` under a single
/// process; `lane_names` supplies optional thread-name metadata (e.g.
/// `(0, "rank 0")`). Timestamps are virtual microseconds.
pub fn chrome_trace_json(spans: &[TraceSpan], lane_names: &[(u64, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for (lane, name) in lane_names {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"name\":\"thread_name\",\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }
    for s in spans {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\
             \"cat\":\"{}\",\"name\":\"{}\"",
            s.lane,
            s.start.as_micros_f64(),
            s.dur.as_micros_f64(),
            json_escape(s.cat),
            json_escape(&s.name),
        ));
        if let Some((k, v)) = s.arg {
            out.push_str(&format!(",\"args\":{{\"{}\":{v}}}", json_escape(k)));
        }
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

/// Aggregated statistics for one (category, name) operation class.
#[derive(Debug, Clone)]
pub struct TraceBucket {
    pub cat: &'static str,
    pub name: String,
    pub count: u64,
    pub total: SimTime,
    pub p50: SimTime,
    pub p95: SimTime,
    pub max: SimTime,
    /// This bucket's share of the total time spent in its category.
    pub share_of_cat: f64,
}

/// Aggregated histogram/percentile summary over a set of spans, the
/// report-friendly exporter ("serialize 12%, PMEM memcpy 71%, ...").
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    pub buckets: Vec<TraceBucket>,
}

impl TraceSummary {
    pub fn from_spans(spans: &[TraceSpan]) -> Self {
        let mut groups: BTreeMap<(&'static str, String), Vec<SimTime>> = BTreeMap::new();
        for s in spans {
            groups
                .entry((s.cat, s.name.to_string()))
                .or_default()
                .push(s.dur);
        }
        let mut cat_totals: BTreeMap<&'static str, u64> = BTreeMap::new();
        for ((cat, _), durs) in &groups {
            *cat_totals.entry(cat).or_default() += durs.iter().map(|d| d.0).sum::<u64>();
        }
        let mut buckets = Vec::with_capacity(groups.len());
        for ((cat, name), mut durs) in groups {
            durs.sort_unstable();
            let total: SimTime = durs.iter().copied().sum();
            let pick = |q: f64| {
                let idx = ((durs.len() - 1) as f64 * q).round() as usize;
                durs[idx]
            };
            let cat_total = cat_totals[cat].max(1);
            buckets.push(TraceBucket {
                cat,
                name,
                count: durs.len() as u64,
                total,
                p50: pick(0.50),
                p95: pick(0.95),
                max: *durs.last().unwrap(),
                share_of_cat: total.0 as f64 / cat_total as f64,
            });
        }
        // Largest contributors first within each category.
        buckets.sort_by(|a, b| a.cat.cmp(b.cat).then(b.total.cmp(&a.total)));
        TraceSummary { buckets }
    }

    /// Buckets restricted to one category.
    pub fn category(&self, cat: &str) -> Vec<&TraceBucket> {
        self.buckets.iter().filter(|b| b.cat == cat).collect()
    }

    /// One-line phase breakdown for a category, e.g.
    /// `"put.memcpy 71.2%, put.serialize 12.4%, put.reserve 9.1%"`.
    pub fn breakdown(&self, cat: &str) -> String {
        self.category(cat)
            .iter()
            .map(|b| format!("{} {:.1}%", b.name, b.share_of_cat * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for TraceSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<6} {:<18} {:>8} {:>12} {:>10} {:>10} {:>10} {:>7}",
            "cat", "op", "count", "total", "p50", "p95", "max", "share"
        )?;
        for b in &self.buckets {
            writeln!(
                f,
                "{:<6} {:<18} {:>8} {:>12} {:>10} {:>10} {:>10} {:>6.1}%",
                b.cat,
                b.name,
                b.count,
                b.total.to_string(),
                b.p50.to_string(),
                b.p95.to_string(),
                b.max.to_string(),
                b.share_of_cat * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &'static str, name: &'static str, lane: u64, start: u64, dur: u64) -> TraceSpan {
        TraceSpan {
            cat,
            name: Cow::Borrowed(name),
            lane,
            start: SimTime(start),
            dur: SimTime(dur),
            arg: None,
        }
    }

    #[test]
    fn collecting_sink_accumulates_and_drains() {
        let sink = CollectingSink::new();
        assert!(sink.is_empty());
        sink.record(span("prim", "pmem.write", 0, 0, 10));
        sink.record(span("prim", "fence", 0, 10, 5));
        assert!(!sink.is_empty());
        let taken = sink.take();
        assert_eq!(taken.len(), 2);
        assert!(sink.is_empty());
    }

    #[test]
    fn chrome_json_has_complete_events() {
        let spans = vec![
            span("prim", "pmem.write", 3, 1000, 2000),
            span("mpi", "barrier", 3, 3000, 500),
        ];
        let json = chrome_trace_json(&spans, &[(3, "rank 3".into())]);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"tid\":3"));
        assert!(json.contains("\"name\":\"pmem.write\""));
        // 1000ns start = 1 virtual microsecond.
        assert!(json.contains("\"ts\":1"));
    }

    #[test]
    fn chrome_json_escapes_names() {
        let spans = vec![TraceSpan {
            cat: "x",
            name: Cow::Owned("weird\"name\\with\nstuff".to_string()),
            lane: 0,
            start: SimTime::ZERO,
            dur: SimTime(1),
            arg: None,
        }];
        let json = chrome_trace_json(&spans, &[]);
        assert!(json.contains("weird\\\"name\\\\with\\nstuff"));
    }

    #[test]
    fn summary_percentiles_and_shares() {
        let mut spans = Vec::new();
        for i in 0..100 {
            spans.push(span("prim", "pmem.write", 0, i * 10, i + 1)); // durs 1..=100
        }
        spans.push(span("prim", "fence", 0, 0, 100));
        let summary = TraceSummary::from_spans(&spans);
        let write = summary
            .buckets
            .iter()
            .find(|b| b.name == "pmem.write")
            .unwrap();
        assert_eq!(write.count, 100);
        assert_eq!(write.total, SimTime(5050));
        assert_eq!(write.max, SimTime(100));
        assert!(write.p50 >= SimTime(49) && write.p50 <= SimTime(52));
        assert!(write.p95 >= SimTime(94) && write.p95 <= SimTime(97));
        // share within "prim": 5050 / 5150
        assert!((write.share_of_cat - 5050.0 / 5150.0).abs() < 1e-9);
        let line = summary.breakdown("prim");
        assert!(line.starts_with("pmem.write"), "{line}");
    }

    #[test]
    fn summary_display_renders_rows() {
        let spans = vec![span("mpi", "barrier", 1, 0, 300)];
        let text = TraceSummary::from_spans(&spans).to_string();
        assert!(text.contains("barrier"));
        assert!(text.contains("300ns"));
    }
}
