//! The tracing layer's contract, end to end:
//!
//! 1. tracing must not perturb virtual time (Fig. 6 cells are bit-identical
//!    with the sink on vs. off),
//! 2. the Chrome-trace exporter emits schema-valid JSON with one lane (tid)
//!    per rank,
//! 3. spans recorded concurrently from rank threads are never lost,
//! 4. an interval that ends in an early return still records its span.

use baselines::PmemcpyLib;
use mpi_sim::{run_world_mode, Comm, SchedMode, World};
use pmem_sim::{
    chrome_trace_json, CollectingSink, Machine, MachineConfig, PersistenceMode, PmemDevice,
    SimTime, TraceSummary,
};
use pmemcpy::{MmapTarget, Pmem, PmemCpyError};
use pmemcpy_bench::{run_cell, CellConfig, Direction};
use std::sync::Arc;

fn small_cfg(nprocs: u64) -> CellConfig {
    CellConfig::paper_on(nprocs, 2 << 20, MachineConfig::chameleon_skylake())
}

/// With one rank there is no interleaving to vary, so bit-exactness must
/// hold under *both* scheduler modes: the deterministic token scheduler and
/// the free-threaded mode (whose only thread is trivially serialized).
#[test]
fn fig6_virtual_time_is_bit_identical_with_tracing_on_and_off() {
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        for direction in [Direction::Write, Direction::Read] {
            let mut cfg = small_cfg(1);
            cfg.sched = mode;
            let off = run_cell(&PmemcpyLib::variant_a(), direction, &cfg, None, None);
            for _ in 0..2 {
                let sink = CollectingSink::new();
                let on = run_cell(
                    &PmemcpyLib::variant_a(),
                    direction,
                    &cfg,
                    Some(sink.clone()),
                    None,
                );
                assert_eq!(
                    off.time, on.time,
                    "{mode:?}/{direction:?}: tracing perturbed virtual time"
                );
                assert_eq!(
                    off.stats, on.stats,
                    "{mode:?}/{direction:?}: tracing perturbed the counters"
                );
                assert!(
                    !sink.is_empty(),
                    "{mode:?}/{direction:?}: traced run recorded nothing"
                );
            }
        }
    }
}

/// At the paper's 8-rank cell the deterministic rank scheduler serializes
/// execution in virtual-time order, so the whole result — job time included —
/// must be bit-identical with tracing on vs. off (the sink charges nothing).
#[test]
fn fig6_eight_rank_cell_unperturbed_by_tracing() {
    for direction in [Direction::Write, Direction::Read] {
        let cfg = small_cfg(8);
        let off = run_cell(&PmemcpyLib::variant_a(), direction, &cfg, None, None);
        let on = run_cell(
            &PmemcpyLib::variant_a(),
            direction,
            &cfg,
            Some(CollectingSink::new()),
            None,
        );
        assert_eq!(
            off.stats, on.stats,
            "{direction:?}: tracing perturbed the counters"
        );
        assert_eq!(
            off.time, on.time,
            "{direction:?}: tracing perturbed virtual time"
        );
    }
}

#[test]
fn chrome_trace_json_is_schema_valid_with_one_lane_per_rank() {
    const NPROCS: u64 = 8;
    let sink = CollectingSink::new();
    run_cell(
        &PmemcpyLib::variant_a(),
        Direction::Write,
        &small_cfg(NPROCS),
        Some(sink.clone()),
        None,
    );
    let spans = sink.take();
    let lanes: Vec<(u64, String)> = (0..NPROCS).map(|r| (r, format!("rank {r}"))).collect();
    let json = chrome_trace_json(&spans, &lanes);

    // Well-formed: every brace/bracket closes, every string terminates.
    assert_balanced(&json);
    assert!(
        json.starts_with("{\"traceEvents\":["),
        "bad envelope: {}",
        &json[..40]
    );

    // Exactly one complete ("X") event per recorded span, each carrying the
    // required ts/dur/tid fields.
    let complete = count(&json, "\"ph\":\"X\"");
    assert_eq!(complete, spans.len(), "span count != complete-event count");
    assert!(count(&json, "\"ts\":") >= complete);
    assert!(count(&json, "\"dur\":") >= complete);
    assert!(count(&json, "\"tid\":") >= complete);
    assert_eq!(count(&json, "\"pid\":1"), complete + lanes.len());

    // One lane per rank: a thread_name metadata event and at least one
    // complete event on every rank's tid, and no spans on unknown lanes.
    for r in 0..NPROCS {
        let meta = format!("{{\"ph\":\"M\",\"pid\":1,\"tid\":{r},\"name\":\"thread_name\"");
        assert_eq!(count(&json, &meta), 1, "rank {r} lane metadata missing");
        assert!(
            spans.iter().any(|s| s.lane == r),
            "rank {r} recorded no spans"
        );
    }
    assert!(
        spans.iter().all(|s| s.lane < NPROCS),
        "span on a lane outside the rank set"
    );

    // The timed write phase must expose the put pipeline.
    let summary = TraceSummary::from_spans(&spans);
    for op in ["put.serialize", "put.memcpy", "put.persist"] {
        assert!(
            summary.category("put").iter().any(|b| b.name == op),
            "missing {op} in {summary}"
        );
    }
}

/// Free-threaded mode on purpose: this test exists to hammer the sink from
/// 8 OS threads running truly concurrently, which the deterministic token
/// scheduler would serialize away.
#[test]
fn spans_from_eight_rank_threads_are_all_retained() {
    const NPROCS: usize = 8;
    const PER_RANK: usize = 200;
    let machine = Machine::chameleon();
    let sink = CollectingSink::new();
    machine.set_trace_sink(sink.clone());
    run_world_mode(
        Arc::clone(&machine),
        NPROCS,
        SchedMode::FreeThreaded,
        |comm| {
            for _ in 0..PER_RANK {
                comm.machine().charge_syscall(comm.clock());
            }
        },
    );
    let spans = sink.take();
    assert_eq!(
        spans.len(),
        NPROCS * PER_RANK,
        "spans were lost under concurrency"
    );
    for r in 0..NPROCS as u64 {
        let on_lane = spans.iter().filter(|s| s.lane == r).count();
        assert_eq!(on_lane, PER_RANK, "rank {r} lost spans");
    }
    assert!(spans.iter().all(|s| s.cat == "prim" && s.name == "syscall"));
    // Spans on one lane never overlap: each rank's clock is monotone.
    for r in 0..NPROCS as u64 {
        let mut lane: Vec<(SimTime, SimTime)> = spans
            .iter()
            .filter(|s| s.lane == r)
            .map(|s| (s.start, s.dur))
            .collect();
        lane.sort();
        for w in lane.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlapping spans on lane {r}");
        }
    }
}

/// A load into a wrong-sized buffer leaves `get.memcpy` through an early
/// return; the guard must still record the interval (with no byte count —
/// nothing was copied), after the header read it did charge.
#[test]
fn a_failed_load_still_records_its_memcpy_span() {
    let machine = Machine::chameleon();
    let dev = PmemDevice::new(Arc::clone(&machine), 16 << 20, PersistenceMode::Fast);
    let comm = Comm::new(World::new(Arc::clone(&machine), 1), 0);
    let mut pmem = Pmem::new();
    pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
    pmem.store_slice("v", &[1.0f64; 100]).unwrap();

    let sink = CollectingSink::new();
    machine.set_trace_sink(sink.clone());
    let err = pmem.load_slice_into("v", &mut [0f64; 99]).unwrap_err();
    assert!(matches!(err, PmemCpyError::ShapeMismatch { .. }), "{err}");
    let spans = sink.take();
    let memcpy: Vec<_> = spans.iter().filter(|s| s.name == "get.memcpy").collect();
    assert_eq!(memcpy.len(), 1, "early return dropped the span: {spans:?}");
    assert_eq!((memcpy[0].cat, memcpy[0].arg), ("get", None));
    assert!(
        memcpy[0].dur > SimTime::ZERO,
        "the header read is inside it"
    );
    assert!(spans.iter().all(|s| s.name != "get.deserialize"));
}

/// Count non-overlapping occurrences of `needle`.
fn count(hay: &str, needle: &str) -> usize {
    hay.match_indices(needle).count()
}

/// Cheap well-formedness scan: braces/brackets balance outside strings and
/// every string literal (with escapes) terminates.
fn assert_balanced(json: &str) {
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut chars = json.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => loop {
                match chars.next() {
                    Some('\\') => {
                        chars.next();
                    }
                    Some('"') => break,
                    Some(_) => {}
                    None => panic!("unterminated string literal"),
                }
            },
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        assert!(depth_obj >= 0 && depth_arr >= 0, "close before open");
    }
    assert_eq!(depth_obj, 0, "unbalanced braces");
    assert_eq!(depth_arr, 0, "unbalanced brackets");
}
