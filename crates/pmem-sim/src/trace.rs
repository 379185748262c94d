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
//! [`chrome_trace_json`] exports them as a Perfetto-loadable Chrome trace
//! with one lane per rank. Aggregates (per-lane phase totals, per-primitive
//! histograms) are the [`MetricsRegistry`](crate::MetricsRegistry)'s job.

use crate::sync::NoYieldMutex;
use crate::time::SimTime;
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
    pub name: &'static str,
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
            json_escape(s.name),
        ));
        if let Some((k, v)) = s.arg {
            out.push_str(&format!(",\"args\":{{\"{}\":{v}}}", json_escape(k)));
        }
        out.push('}');
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(cat: &'static str, name: &'static str, lane: u64, start: u64, dur: u64) -> TraceSpan {
        TraceSpan {
            cat,
            name,
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
        let spans = vec![span("x", "weird\"name\\with\nstuff", 0, 0, 1)];
        let json = chrome_trace_json(&spans, &[]);
        assert!(json.contains("weird\\\"name\\\\with\\nstuff"));
    }
}
