//! The comparison rule of `run.sh --compare`, on hand-made result files.

use pmemcpy_benchmark::compare::{compare, judge, parse, render, Sample, Verdict};
use pmemcpy_benchmark::defs::{Better, ClockKind};

fn sample(value: f64, q1: f64, q3: f64) -> Sample {
    Sample { value, q1, q3 }
}

fn point(value: f64) -> Sample {
    sample(value, value, value)
}

/// A result file with one run of `workload` holding the given metrics.
fn file(workload: &str, metrics: &[(&str, f64, f64, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, q1, q3)| {
            format!("\"{name}\": {{\"value\": {value}, \"q1\": {q1}, \"q3\": {q3}, \"n\": 7}}")
        })
        .collect();
    format!(
        "{{\"runs\": [{{\"workload\": \"{workload}\", \"metrics\": {{{}}}}}]}}",
        body.join(", ")
    )
}

#[test]
fn exact_metrics_must_be_bit_equal() {
    let j = |a: f64, b: f64| judge(ClockKind::Exact, Better::Lower, 0.06, &point(a), &point(b));
    assert_eq!(j(5.536997065, 5.536997065), Verdict::Equal);
    // One nanosecond of virtual time is a difference, bound or no bound, and
    // so is an improvement: exact means equal.
    assert_eq!(j(5.536997065, 5.536997066), Verdict::Differs);
    assert_eq!(j(5.536997065, 5.0), Verdict::Differs);
}

#[test]
fn host_metrics_are_held_to_their_bound() {
    let j = |a: Sample, b: Sample| judge(ClockKind::Host, Better::Lower, 0.10, &a, &b);
    assert_eq!(
        j(point(1.0), point(1.05)),
        Verdict::Within {
            worse_by: 0.050000000000000044
        }
    );
    assert!(matches!(j(point(1.0), point(0.5)), Verdict::Within { worse_by } if worse_by < 0.0));
    assert!(matches!(
        j(point(1.0), point(1.2)),
        Verdict::Regressed { .. }
    ));
    // Exactly at the bound is not beyond it.
    assert!(matches!(
        j(point(10.0), point(11.0)),
        Verdict::Within { .. }
    ));
}

#[test]
fn a_higher_is_better_metric_regresses_downwards() {
    let j = |a: f64, b: f64| judge(ClockKind::Host, Better::Higher, 0.10, &point(a), &point(b));
    assert!(matches!(j(100.0, 80.0), Verdict::Regressed { .. }));
    assert!(matches!(j(100.0, 120.0), Verdict::Within { .. }));
}

#[test]
fn spread_wider_than_the_bound_is_unresolved_not_unchanged() {
    // Either side's quartiles further apart than the bound: no verdict, even
    // though the medians are equal, and even when B looks much worse.
    let noisy = sample(1.0, 0.9, 1.1);
    let j = |a: &Sample, b: &Sample| judge(ClockKind::Host, Better::Lower, 0.10, a, b);
    assert!(matches!(j(&noisy, &point(1.0)), Verdict::Unresolved { spread } if spread > 0.19));
    assert!(matches!(j(&point(1.0), &noisy), Verdict::Unresolved { .. }));
    assert!(matches!(j(&noisy, &point(2.0)), Verdict::Unresolved { .. }));
    assert!(!Verdict::Unresolved { spread: 0.2 }.fails());
}

#[test]
fn per_layer_host_metrics_have_no_bound_and_never_fail() {
    let j = |a: f64, b: f64| judge(ClockKind::Host, Better::Lower, 0.0, &point(a), &point(b));
    assert!(matches!(j(3.2, 4.4), Verdict::Unbounded { worse_by } if worse_by > 0.3));
    assert!(!j(3.2, 4.4).fails());
    // ... through a file too: a ladder rung 40 % slower is shown, not failed.
    let a = file(
        "storm_inline",
        &[("mpi_sim.handoff8.host_ns", 3200.0, 3200.0, 3200.0)],
    );
    let b = file(
        "storm_inline",
        &[("mpi_sim.handoff8.host_ns", 4400.0, 4400.0, 4400.0)],
    );
    let (table, failing) = render(&compare(&parse(&a).unwrap(), &parse(&b).unwrap()));
    assert_eq!(failing, 0);
    assert!(table.contains("no bound"));
    // A per-layer *exact* metric still has to be equal.
    let a = file(
        "storm_inline",
        &[("pmdk_sim.pool_txs", 516.0, 516.0, 516.0)],
    );
    let b = file(
        "storm_inline",
        &[("pmdk_sim.pool_txs", 517.0, 517.0, 517.0)],
    );
    let (_, failing) = render(&compare(&parse(&a).unwrap(), &parse(&b).unwrap()));
    assert_eq!(failing, 1);
}

#[test]
fn files_compare_row_by_row() {
    let a = file(
        "storm_inline",
        &[
            ("sim_s", 0.024784922, 0.024784922, 0.024784922),
            ("host_s", 1.00, 0.99, 1.01),
            ("setup_s", 0.040, 0.039, 0.041),
        ],
    );
    let b = file(
        "storm_inline",
        &[
            ("sim_s", 0.024784922, 0.024784922, 0.024784922),
            ("host_s", 0.40, 0.39, 0.41),
            ("setup_s", 0.080, 0.079, 0.081),
        ],
    );
    let rows = compare(&parse(&a).unwrap(), &parse(&b).unwrap());
    assert_eq!(rows.len(), 3);
    let verdict = |metric: &str| &rows.iter().find(|r| r.metric == metric).unwrap().verdict;
    assert_eq!(*verdict("sim_s"), Verdict::Equal);
    assert!(matches!(verdict("host_s"), Verdict::Within { worse_by } if *worse_by < -0.5));
    assert!(matches!(verdict("setup_s"), Verdict::Regressed { .. }));
    let (table, failing) = render(&rows);
    assert_eq!(failing, 1);
    assert!(table.contains("REGRESSED") && table.contains("equal"));
}

#[test]
fn a_file_compared_with_itself_passes() {
    let a = file(
        "kv_mixed",
        &[("sim_s", 0.48, 0.48, 0.48), ("host_s", 0.33, 0.32, 0.34)],
    );
    let parsed = parse(&a).unwrap();
    let (_, failing) = render(&compare(&parsed, &parsed));
    assert_eq!(failing, 0);
}

#[test]
fn metrics_on_one_side_only_fail() {
    let a = file("kv_mixed", &[("sim_s", 0.48, 0.48, 0.48)]);
    let b = file("kv_mixed", &[("host_s", 0.33, 0.32, 0.34)]);
    let rows = compare(&parse(&a).unwrap(), &parse(&b).unwrap());
    assert_eq!(rows.len(), 2);
    assert!(rows.iter().all(|r| r.verdict == Verdict::Missing));
    // Same metric name under another workload is another row.
    let c = file("storm_wb", &[("sim_s", 0.48, 0.48, 0.48)]);
    let rows = compare(&parse(&a).unwrap(), &parse(&c).unwrap());
    assert!(rows.iter().all(|r| r.verdict == Verdict::Missing));
}

#[test]
fn malformed_result_files_are_errors_not_panics() {
    for bad in ["", "{}", "{\"runs\": 3}", "{\"runs\": [{\"metrics\": {}}]}"] {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
    let no_value = "{\"runs\": [{\"workload\": \"w\", \"metrics\": {\"sim_s\": {\"q1\": 1}}}]}";
    assert!(parse(no_value).is_err());
}
