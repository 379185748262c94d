//! `--compare A.json B.json`: two result files of the benchmark, one row per
//! workload × metric.
//!
//! The rule: an `exact` metric (virtual clock, deterministic count) must be
//! *equal* between two runs on one seed — any difference is a change of
//! modelled behaviour. A `host` metric of B may be worse than A's median by at
//! most its bound; where the run-to-run spread of either side (distance
//! between its quartiles over its median) is wider than the bound, the row
//! reads `unresolved`, never `unchanged`. Per-layer host metrics have no
//! bound (most are one sample of one ladder rung): their change is shown and
//! never fails the comparison — they say where to look, the end-to-end rows
//! say whether anything happened.

use crate::defs::{self, Better, ClockKind};
use crate::json::Json;
use crate::stats;

/// One side's value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Sample {
    fn spread(&self) -> f64 {
        stats::spread(self.q1, self.value, self.q3)
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Exact metric, bit-equal.
    Equal,
    /// Exact metric, not equal.
    Differs,
    /// Host metric, B no worse than A by more than the bound (`worse_by` is
    /// negative when B is better).
    Within { worse_by: f64 },
    /// Host metric, B worse than A by more than the bound.
    Regressed { worse_by: f64 },
    /// Host metric whose spread is wider than its bound.
    Unresolved { spread: f64 },
    /// Per-layer host metric: no bound, the change is only shown.
    Unbounded { worse_by: f64 },
    /// Present on one side only.
    Missing,
}

impl Verdict {
    pub fn fails(&self) -> bool {
        matches!(
            self,
            Verdict::Differs | Verdict::Regressed { .. } | Verdict::Missing
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub a: Option<Sample>,
    pub b: Option<Sample>,
    pub verdict: Verdict,
}

/// Judge one metric. `clock`, `better` and `bound` come from the metric's
/// declaration; a `bound` of 0 means the metric declares none.
pub fn judge(clock: ClockKind, better: Better, bound: f64, a: &Sample, b: &Sample) -> Verdict {
    if clock == ClockKind::Exact {
        return if a.value.to_bits() == b.value.to_bits() {
            Verdict::Equal
        } else {
            Verdict::Differs
        };
    }
    let worse_by = if a.value == 0.0 {
        0.0
    } else {
        match better {
            Better::Lower => (b.value - a.value) / a.value.abs(),
            Better::Higher => (a.value - b.value) / a.value.abs(),
        }
    };
    if bound == 0.0 {
        return Verdict::Unbounded { worse_by };
    }
    let spread = a.spread().max(b.spread());
    if spread > bound {
        return Verdict::Unresolved { spread };
    }
    if worse_by > bound {
        Verdict::Regressed { worse_by }
    } else {
        Verdict::Within { worse_by }
    }
}

type Parsed = Vec<((String, String), Sample)>;

/// Read `{"runs": [{"workload": .., "metrics": {name: {value, q1, q3}}}]}`.
pub fn parse(text: &str) -> Result<Parsed, String> {
    let doc = Json::parse(text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("result file has no \"runs\" array")?;
    let mut out = Vec::new();
    for run in runs {
        let workload = run
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let metrics = run
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            let num = |k: &str| m.get(k).and_then(Json::as_f64);
            let value = num("value").ok_or_else(|| format!("{workload}/{name}: no value"))?;
            out.push((
                (workload.to_string(), name.clone()),
                Sample {
                    value,
                    q1: num("q1").unwrap_or(value),
                    q3: num("q3").unwrap_or(value),
                },
            ));
        }
    }
    Ok(out)
}

/// Compare two parsed result files: A's rows in A's order, then rows only B
/// has.
pub fn compare(a: &Parsed, b: &Parsed) -> Vec<Row> {
    let find = |side: &Parsed, key: &(String, String)| {
        side.iter().find(|(k, _)| k == key).map(|(_, s)| s.clone())
    };
    let mut rows = Vec::new();
    for (key, sa) in a {
        let sb = find(b, key);
        let verdict = match (
            &sb,
            defs::end_to_end(&key.1).or_else(|| defs::per_layer(&key.1)),
        ) {
            (Some(sb), Some(d)) => judge(d.clock, d.better, d.bound, sa, sb),
            _ => Verdict::Missing,
        };
        rows.push(Row {
            workload: key.0.clone(),
            metric: key.1.clone(),
            a: Some(sa.clone()),
            b: sb,
            verdict,
        });
    }
    for (key, sb) in b {
        if find(a, key).is_none() {
            rows.push(Row {
                workload: key.0.clone(),
                metric: key.1.clone(),
                a: None,
                b: Some(sb.clone()),
                verdict: Verdict::Missing,
            });
        }
    }
    rows
}

/// The table, one row per workload × metric, and the number of failing rows.
pub fn render(rows: &[Row]) -> (String, usize) {
    let mut out = format!(
        "{:<14} {:<44} {:>16} {:>16}  verdict\n",
        "workload", "metric", "A", "B"
    );
    let show = |s: &Option<Sample>| {
        s.as_ref()
            .map_or("-".to_string(), |s| format!("{}", s.value))
    };
    let mut failing = 0;
    for r in rows {
        let verdict = match &r.verdict {
            Verdict::Equal => "equal".to_string(),
            Verdict::Differs => "DIFFERS (exact metric must be equal)".to_string(),
            Verdict::Within { worse_by } => format!("within bound ({:+.2} %)", worse_by * 100.0),
            Verdict::Regressed { worse_by } => {
                format!("REGRESSED ({:+.2} % worse)", worse_by * 100.0)
            }
            Verdict::Unresolved { spread } => {
                format!(
                    "unresolved (spread {:.2} % wider than bound)",
                    spread * 100.0
                )
            }
            Verdict::Unbounded { worse_by } => {
                format!("{:+.2} % (per-layer, no bound)", worse_by * 100.0)
            }
            Verdict::Missing => "MISSING on one side".to_string(),
        };
        failing += usize::from(r.verdict.fails());
        out.push_str(&format!(
            "{:<14} {:<44} {:>16} {:>16}  {verdict}\n",
            r.workload,
            r.metric,
            show(&r.a),
            show(&r.b)
        ));
    }
    (out, failing)
}
