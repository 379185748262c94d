//! Deterministic metrics: typed counters and virtual-time histograms in
//! one registry, plus phase attribution of every charged
//! virtual nanosecond.
//!
//! Like [`crate::trace`], the subsystem is disabled by default and
//! zero-cost in that state: every instrumentation site checks a single
//! `OnceLock` on the [`crate::machine::Machine`] and bails out before any
//! bookkeeping. When a [`MetricsRegistry`] is installed, the machine's
//! `charge_*` primitives attribute the virtual-time delta of every charge
//! to the innermost active *phase label* on the calling thread (pushed by
//! [`crate::machine::Machine::phase`]), falling back to the primitive's
//! own name. Because only the machine's one private `charge` attributes
//! time — each delta exactly once, waits under their own label — the
//! per-lane phase totals *tile* the rank's timeline: they sum to the
//! end-to-end virtual time, which is what makes the phase waterfall in the
//! run reports add up instead of merely sampling.
//!
//! Determinism: all state lives in `BTreeMap`s (stable iteration order)
//! and all recorded values are virtual — derived from [`SimTime`] deltas
//! and modelled byte counts, never wall-clock reads — so under the
//! deterministic scheduler the registry's JSON export is bit-reproducible
//! run to run.

use crate::sync::NoYieldMutex;
use crate::time::SimTime;
use crate::trace::json_escape;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

// ---- thread-local phase-label stack ----

thread_local! {
    /// Innermost-wins stack of semantic phase labels for the current
    /// thread (one simulated rank runs per thread, so thread-local is
    /// per-rank). Only touched when a registry is installed.
    static PHASE_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// The innermost active phase label on this thread, if any.
pub(crate) fn current_phase() -> Option<&'static str> {
    PHASE_STACK.with(|s| s.borrow().last().copied())
}

/// Push / pop a label; only [`crate::machine::Span`] pairs them.
pub(crate) fn push_phase(label: &'static str) {
    PHASE_STACK.with(|s| s.borrow_mut().push(label));
}

pub(crate) fn pop_phase() {
    PHASE_STACK.with(|s| s.borrow_mut().pop());
}

// ---- histogram ----

/// Number of log₂ buckets: bucket `i` holds samples with
/// `2^(i-1) ≤ ns < 2^i` (bucket 0 holds zero-duration samples).
pub(crate) const HIST_BUCKETS: usize = 64;

/// A fixed-shape log₂ histogram of virtual durations (nanoseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    pub count: u64,
    pub sum: SimTime,
    pub min: SimTime,
    pub max: SimTime,
    /// `buckets[i]` counts samples whose nanosecond value has bit length
    /// `i` (i.e. `i = 64 - leading_zeros(ns)`; zero lands in bucket 0).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: SimTime::ZERO,
            min: SimTime(u64::MAX),
            max: SimTime::ZERO,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl Histogram {
    /// Bucket index for a duration: its bit length, saturating at the last
    /// bucket (samples ≥ 2⁶³ ns share it with those ≥ 2⁶²).
    #[inline]
    pub(crate) fn bucket_of(d: SimTime) -> usize {
        ((64 - d.0.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }

    pub(crate) fn record(&mut self, d: SimTime) {
        self.count += 1;
        self.sum += d;
        self.min = self.min.min(d);
        self.max = self.max.max(d);
        self.buckets[Self::bucket_of(d)] += 1;
    }

    /// `min` as recorded, or zero for an empty histogram.
    pub(crate) fn min_or_zero(&self) -> SimTime {
        if self.count == 0 {
            SimTime::ZERO
        } else {
            self.min
        }
    }
}

// ---- registry ----

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, Histogram>,
    /// Accumulated virtual time per lane, then per phase label: nested so
    /// a charge looks its label up by `&str` and allocates only the first
    /// time a (lane, label) pair is seen.
    phases: BTreeMap<u64, BTreeMap<String, SimTime>>,
}

/// The metrics registry: install once per [`crate::machine::Machine`]
/// via `set_metrics`, read back with [`MetricsRegistry::snapshot`].
///
/// All mutating entry points take `&self`; state is behind one mutex.
/// That is fine because the registry is only ever touched when metrics
/// are explicitly enabled, and recorded quantities are virtual (mutex
/// wait is host time, which the model never observes).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    /// Not a scheduler interaction point: every update is a commutative sum
    /// keyed by lane or name, so the order ranks arrive in is unobservable.
    /// As a point it would put a token hand-off back on every charge of
    /// every metered run.
    inner: NoYieldMutex<Inner>,
}

impl MetricsRegistry {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Add `n` to the named counter.
    pub(crate) fn counter_add(&self, name: &str, n: u64) {
        let mut inner = self.inner.lock();
        match inner.counters.get_mut(name) {
            Some(v) => *v += n,
            None => {
                inner.counters.insert(name.to_owned(), n);
            }
        }
    }

    /// Record a virtual duration into the named histogram.
    pub(crate) fn hist_record(&self, name: &str, d: SimTime) {
        let mut inner = self.inner.lock();
        match inner.hists.get_mut(name) {
            Some(h) => h.record(d),
            None => {
                let mut h = Histogram::default();
                h.record(d);
                inner.hists.insert(name.to_owned(), h);
            }
        }
    }

    /// Attribute `d` of virtual time on `lane` to phase `label`.
    pub(crate) fn phase_add(&self, lane: u64, label: &str, d: SimTime) {
        if d == SimTime::ZERO {
            return;
        }
        let mut inner = self.inner.lock();
        let labels = inner.phases.entry(lane).or_default();
        match labels.get_mut(label) {
            Some(t) => *t += d,
            None => {
                labels.insert(label.to_owned(), d);
            }
        }
    }

    /// Point-in-time copy of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            hists: inner.hists.clone(),
            phases: inner
                .phases
                .iter()
                .flat_map(|(&lane, labels)| {
                    labels.iter().map(move |(l, &t)| ((lane, l.clone()), t))
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`MetricsRegistry`], ready for export.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub hists: BTreeMap<String, Histogram>,
    pub phases: BTreeMap<(u64, String), SimTime>,
}

impl MetricsSnapshot {
    /// Counter value, defaulting to zero.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All lanes that have phase time attributed, ascending.
    pub(crate) fn lanes(&self) -> Vec<u64> {
        let mut lanes: Vec<u64> = self.phases.keys().map(|(lane, _)| *lane).collect();
        lanes.dedup();
        lanes
    }

    /// Phase label → time for one lane, in stable (BTreeMap) order.
    pub fn lane_phases(&self, lane: u64) -> Vec<(&str, SimTime)> {
        self.phases
            .iter()
            .filter(|((l, _), _)| *l == lane)
            .map(|((_, name), t)| (name.as_str(), *t))
            .collect()
    }

    /// Total attributed time on one lane.
    pub fn lane_total(&self, lane: u64) -> SimTime {
        self.lane_phases(lane).iter().map(|(_, t)| *t).sum()
    }

    /// Stable-schema JSON object. Key order is fixed by the BTreeMaps, so
    /// two identical runs produce byte-identical text.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str("\"counters\":{");
        push_map(
            &mut out,
            self.counters.iter().map(|(k, v)| (k, v.to_string())),
        );
        // Schema 2 has a "gauges" object; nothing ever set one, so it is
        // emitted empty to keep committed reports byte-identical.
        out.push_str("},\"gauges\":{},\"histograms\":{");
        push_map(&mut out, self.hists.iter().map(|(k, h)| (k, hist_json(h))));
        out.push_str("},\"phases\":{");
        // Group by lane: {"0": {"put.memcpy": ns, ...}, ...}
        let mut first_lane = true;
        for lane in self.lanes() {
            if !first_lane {
                out.push(',');
            }
            first_lane = false;
            out.push_str(&format!("\"{lane}\":{{"));
            push_map(
                &mut out,
                self.lane_phases(lane)
                    .into_iter()
                    .map(|(name, t)| (name, t.as_nanos().to_string())),
            );
            out.push('}');
        }
        out.push_str("}}");
        out
    }
}

fn push_map<'a>(out: &mut String, entries: impl Iterator<Item = (impl AsRef<str> + 'a, String)>) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{}\":{v}", json_escape(k.as_ref())));
    }
}

fn hist_json(h: &Histogram) -> String {
    let mut out = format!(
        "{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"buckets\":{{",
        h.count,
        h.sum.as_nanos(),
        h.min_or_zero().as_nanos(),
        h.max.as_nanos()
    );
    let mut first = true;
    for (i, n) in h.buckets.iter().enumerate() {
        if *n == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\"{i}\":{n}"));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(Histogram::bucket_of(SimTime(0)), 0);
        assert_eq!(Histogram::bucket_of(SimTime(1)), 1);
        assert_eq!(Histogram::bucket_of(SimTime(2)), 2);
        assert_eq!(Histogram::bucket_of(SimTime(3)), 2);
        assert_eq!(Histogram::bucket_of(SimTime(4)), 3);
        assert_eq!(Histogram::bucket_of(SimTime(1023)), 10);
        assert_eq!(Histogram::bucket_of(SimTime(1024)), 11);
        // Saturates: a huge sample must not land in the zero-duration bucket.
        assert_eq!(Histogram::bucket_of(SimTime(1 << 62)), 63);
        assert_eq!(Histogram::bucket_of(SimTime(u64::MAX)), 63);
    }

    #[test]
    fn histogram_tracks_moments() {
        let mut h = Histogram::default();
        h.record(SimTime(10));
        h.record(SimTime(30));
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, SimTime(40));
        assert_eq!(h.min, SimTime(10));
        assert_eq!(h.max, SimTime(30));
        assert!(Histogram::default().min_or_zero() == SimTime::ZERO);
    }

    #[test]
    fn registry_accumulates_and_snapshots() {
        let m = MetricsRegistry::new();
        m.counter_add("put.logical_bytes", 100);
        m.counter_add("put.logical_bytes", 50);
        m.hist_record("pmem.write", SimTime(200));
        m.phase_add(0, "put.memcpy", SimTime(1000));
        m.phase_add(0, "put.memcpy", SimTime(500));
        m.phase_add(1, "put.memcpy", SimTime(700));
        let s = m.snapshot();
        assert_eq!(s.counter("put.logical_bytes"), 150);
        assert_eq!(s.counter("missing"), 0);
        assert_eq!(s.hists["pmem.write"].count, 1);
        assert_eq!(s.lanes(), vec![0, 1]);
        assert_eq!(s.lane_total(0), SimTime(1500));
        assert_eq!(s.lane_total(1), SimTime(700));
    }

    #[test]
    fn zero_phase_time_is_not_recorded() {
        let m = MetricsRegistry::new();
        m.phase_add(0, "noop", SimTime::ZERO);
        assert!(m.snapshot().phases.is_empty());
    }

    #[test]
    fn snapshot_json_is_stable_and_balanced() {
        let m = MetricsRegistry::new();
        m.counter_add("b", 2);
        m.counter_add("a", 1);
        m.hist_record("h", SimTime(5));
        m.phase_add(0, "x", SimTime(9));
        let a = m.snapshot().to_json();
        let b = m.snapshot().to_json();
        assert_eq!(a, b, "snapshot export must be deterministic");
        // Keys in sorted order regardless of insertion order.
        assert!(a.find("\"a\":1").unwrap() < a.find("\"b\":2").unwrap());
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert!(a.contains("\"phases\":{\"0\":{\"x\":9}}"));
    }

    #[test]
    fn phase_stack_nests_innermost_wins() {
        assert_eq!(current_phase(), None);
        push_phase("write");
        assert_eq!(current_phase(), Some("write"));
        push_phase("put.serialize");
        assert_eq!(current_phase(), Some("put.serialize"));
        pop_phase();
        assert_eq!(current_phase(), Some("write"));
        pop_phase();
        assert_eq!(current_phase(), None);
    }
}
