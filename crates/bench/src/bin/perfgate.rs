//! perfgate — the CI performance-regression gate.
//!
//! Compares a freshly generated BENCH report against a committed baseline:
//!
//! ```text
//! cargo run -p pmemcpy-bench --bin perfgate -- \
//!     results/BENCH_fig6.json results/baseline/BENCH_fig6.json \
//!     [--tolerance-pct 2] [--warn-only]
//! ```
//!
//! Every baseline cell must exist in the fresh report (matched on
//! library × direction × nprocs) with:
//!
//! * the same `device_profile` — comparing runs from different modelled
//!   devices is meaningless, so a mismatch is a hard error;
//! * `virtual_time_ns` within `tolerance` above the baseline (the runs are
//!   deterministic, so any drift is a real model change);
//! * every `stats` counter within `tolerance` above the baseline — a
//!   zero baseline must stay zero, which is what protects e.g. pMEMCPY's
//!   `dram_bytes_copied = 0` no-staging invariant;
//! * `mismatches == 0`.
//!
//! A field the baseline carries and the fresh cell lacks is a regression,
//! never a zero. Improvements (values below baseline) are reported as notes
//! and pass.
//! Exit status is nonzero on any regression unless `--warn-only` is given.

use pmemcpy_bench::json::Json;
use pmemcpy_bench::REPORT_SCHEMA;
use std::process::ExitCode;

struct Args {
    fresh: String,
    baseline: String,
    tolerance_pct: f64,
    warn_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = vec![];
    let mut tolerance_pct = 2.0;
    let mut warn_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--tolerance-pct" => {
                tolerance_pct = it
                    .next()
                    .ok_or("--tolerance-pct needs a value")?
                    .parse::<f64>()
                    .map_err(|e| e.to_string())?;
            }
            "--warn-only" => warn_only = true,
            "--help" | "-h" => {
                return Err("usage: perfgate <fresh.json> <baseline.json> \
                     [--tolerance-pct N] [--warn-only]"
                    .into())
            }
            other => positional.push(other.to_string()),
        }
    }
    if positional.len() != 2 {
        return Err("usage: perfgate <fresh.json> <baseline.json> \
             [--tolerance-pct N] [--warn-only]"
            .into());
    }
    Ok(Args {
        fresh: positional.remove(0),
        baseline: positional.remove(0),
        tolerance_pct,
        warn_only,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_u64);
    if schema != Some(REPORT_SCHEMA) {
        return Err(format!(
            "{path}: schema {schema:?}, this perfgate understands {REPORT_SCHEMA}"
        ));
    }
    Ok(doc)
}

/// The identity of one cell within a report.
fn cell_key(cell: &Json) -> Option<(String, String, u64)> {
    Some((
        cell.get("library")?.as_str()?.to_string(),
        cell.get("direction")?.as_str()?.to_string(),
        cell.get("nprocs")?.as_u64()?,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let (fresh, baseline) = match (load(&args.fresh), load(&args.baseline)) {
        (Ok(f), Ok(b)) => (f, b),
        (f, b) => {
            for r in [f, b] {
                if let Err(e) = r {
                    eprintln!("perfgate: {e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };
    let allowed = 1.0 + args.tolerance_pct / 100.0;
    let mut regressions = vec![];
    let mut notes = vec![];

    let fresh_cells: Vec<&Json> = fresh
        .get("cells")
        .and_then(Json::as_arr)
        .map(|a| a.iter().collect())
        .unwrap_or_default();
    let base_cells: Vec<&Json> = baseline
        .get("cells")
        .and_then(Json::as_arr)
        .map(|a| a.iter().collect())
        .unwrap_or_default();

    for base in &base_cells {
        let Some(key) = cell_key(base) else {
            regressions.push("baseline cell without identity fields".to_string());
            continue;
        };
        let label = format!("{} {} p={}", key.0, key.1, key.2);
        let Some(cur) = fresh_cells
            .iter()
            .find(|c| cell_key(c).as_ref() == Some(&key))
        else {
            regressions.push(format!("{label}: missing from fresh report"));
            continue;
        };

        // Device profile: a baseline/fresh mismatch means the comparison
        // spans different modelled hardware — always a hard error, never
        // a tolerance question.
        let b_prof = base.get("device_profile").and_then(Json::as_str);
        let c_prof = cur.get("device_profile").and_then(Json::as_str);
        if b_prof != c_prof {
            regressions.push(format!(
                "{label}: device_profile observed {c_prof:?} vs baseline {b_prof:?} \
                 (profile mismatch is a hard error)"
            ));
            continue;
        }

        // Virtual job time and every media/effort counter in the baseline's
        // `stats`. A field the baseline has and the fresh report lacks is a
        // regression: reading it as 0 would log an improvement.
        let mut compare = |field: String, b: Option<f64>, c: Option<f64>| {
            let b = b.unwrap_or(0.0);
            let Some(c) = c else {
                regressions.push(format!("{label}: {field} missing from the fresh report"));
                return;
            };
            if b == 0.0 && c != 0.0 {
                regressions.push(format!(
                    "{label}: {field} observed {c:.0} vs baseline 0 \
                     (a zero baseline must stay zero)"
                ));
            } else if c > b * allowed {
                regressions.push(format!(
                    "{label}: {field} observed {c:.0} vs baseline {b:.0} \
                     (+{:.2}%, exceeds {:.1}% tolerance)",
                    (c / b - 1.0) * 100.0,
                    args.tolerance_pct
                ));
            } else if c < b {
                notes.push(format!("{label}: {field} improved {b:.0} -> {c:.0}"));
            }
        };
        let number = |cell: &Json, field: &str| cell.get(field).and_then(Json::as_f64);
        compare(
            "virtual_time_ns".into(),
            number(base, "virtual_time_ns"),
            number(cur, "virtual_time_ns"),
        );
        let fresh_stats = cur.get("stats");
        for (name, bval) in base
            .get("stats")
            .and_then(Json::as_obj)
            .into_iter()
            .flatten()
        {
            let c = fresh_stats.and_then(|stats| number(stats, name));
            compare(format!("stats.{name}"), bval.as_f64(), c);
        }

        let mism = cur
            .get("mismatches")
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX);
        if mism != 0 {
            regressions.push(format!("{label}: {mism} verification mismatches"));
        }
    }

    for n in &notes {
        println!("note: {n}");
    }
    if regressions.is_empty() {
        println!(
            "perfgate: OK — {} cells within {:.1}% of {}",
            base_cells.len(),
            args.tolerance_pct,
            args.baseline
        );
        return ExitCode::SUCCESS;
    }
    for r in &regressions {
        eprintln!("REGRESSION: {r}");
    }
    eprintln!(
        "perfgate: {} regression(s) vs {} (tolerance {:.1}%)",
        regressions.len(),
        args.baseline,
        args.tolerance_pct
    );
    if args.warn_only {
        eprintln!("perfgate: --warn-only set, exiting 0");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
