//! `benchmark/run.sh` builds this binary and hands it its arguments.
//!
//! ```text
//! run.sh [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]      all five workloads,
//!                                                                  each in its own process
//! run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]    one workload, this process;
//!                                                                  last line is the result JSON
//! run.sh --selfcheck                      virtual clock against results/ci_baseline/, tracing
//!                                         transparency and phase tiling on all five
//! run.sh --compare A.json B.json          two result files, one row per workload x metric
//! run.sh --print-manifest                 the text of BENCHMARK.json
//! ```

use pmemcpy_benchmark::json::Json;
use pmemcpy_benchmark::workloads::{self, IterCfg, Scale, Workload};
use pmemcpy_benchmark::{compare, defs, layers, run, spans};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    selfcheck: bool,
    compare: Option<(PathBuf, PathBuf)>,
    print_manifest: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: run.sh [--workload {}] [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]\n       run.sh --selfcheck | --compare A.json B.json | --print-manifest",
        workloads::ALL.map(|w| w.name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: defs::RUN_SECONDS as f64,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        selfcheck: false,
        compare: None,
        print_manifest: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{what} needs a value");
                usage()
            })
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload");
                args.workload = Some(workloads::find(&name).unwrap_or_else(|| {
                    eprintln!("unknown workload {name:?}");
                    usage()
                }));
            }
            "--seed" => args.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                args.seconds = value("--seconds").parse().unwrap_or_else(|_| usage());
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    eprintln!("--seconds must be in (0, 600]");
                    usage();
                }
            }
            "--trace" => {
                // `--trace 0|1` as the driver passes it; bare `--trace` means 1.
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--out" => args.out = PathBuf::from(value("--out")),
            "--selfcheck" => args.selfcheck = true,
            "--compare" => {
                let a = PathBuf::from(value("--compare"));
                let b = PathBuf::from(value("--compare"));
                args.compare = Some((a, b));
            }
            "--print-manifest" => args.print_manifest = true,
            _ => {
                eprintln!("unknown argument {arg:?}");
                usage();
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.print_manifest {
        print!("{}", defs::manifest());
        return ExitCode::SUCCESS;
    }
    if let Some((a, b)) = &args.compare {
        return compare_files(a, b);
    }
    if args.selfcheck {
        return selfcheck();
    }
    match args.workload {
        Some(w) => one_workload(w, &args),
        None => all_workloads(&args),
    }
}

fn result_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!(
        "result_{workload}{}.json",
        if traced { "_trace" } else { "" }
    ))
}

/// One workload in this process. Everything for the reader first, the result
/// object as the last line.
fn one_workload(workload: &'static Workload, args: &Args) -> ExitCode {
    let report = if args.trace {
        run::per_layer(workload, args.seed, Scale::Full)
    } else {
        run::end_to_end(workload, args.seed, args.seconds, Scale::Full)
    };
    print!("{}", run::render(&report));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|_| {
            std::fs::write(
                result_path(&args.out, workload.name, args.trace),
                run::result_file(&report),
            )
        })
        .and_then(|_| {
            if args.trace {
                let path = args.out.join(format!("spans_{}.json", workload.name));
                println!("note: {} spans -> {}", report.spans.len(), path.display());
                std::fs::write(path, spans::spans_json(workload.name, &report.spans))
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("cannot write under {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    println!("{}", run::result_line(&report));
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every workload, each in its own process (peak memory, allocator state and
/// the interned-pool registry start fresh), merged into `OUT/results.json`.
fn all_workloads(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut runs = Vec::new();
    let mut failed = Vec::new();
    for workload in workloads::ALL.map(|w| w.name) {
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let output = Command::new(&exe)
                .args(["--workload", workload])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&args.out)
                .output();
            let output = match output {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("cannot run {workload}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let lines: Vec<&str> = stdout.lines().collect();
            // The child's last line is the machine-readable object; the
            // reader of this report gets the table.
            let body = &lines[..lines.len().saturating_sub(1)];
            println!("{}\n", body.join("\n"));
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            if !output.status.success() {
                failed.push(format!("{workload} (trace {})", u8::from(traced)));
            }
            match std::fs::read_to_string(result_path(&args.out, workload, traced)) {
                Ok(text) => runs.push(text.trim_end().to_string()),
                Err(e) => failed.push(format!("{workload}: no result file: {e}")),
            }
        }
    }
    let merged = format!("{{\"runs\": [\n{}\n]}}\n", runs.join(",\n"));
    let path = args.out.join("results.json");
    if let Err(e) = std::fs::write(&path, merged) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("results -> {}", path.display());
    if failed.is_empty() {
        println!("all checks passed, ops_failed = 0 on every workload");
        ExitCode::SUCCESS
    } else {
        println!("FAILED: {}", failed.join("; "));
        ExitCode::FAILURE
    }
}

fn compare_files(a: &Path, b: &Path) -> ExitCode {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .map_err(|e| e.to_string())
            .and_then(|t| compare::parse(&t))
            .map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = match (read(a), read(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (table, failing) = compare::render(&compare::compare(&a, &b));
    print!("{table}");
    if failing == 0 {
        println!(
            "compare: every exact metric equal, every host metric within its bound or unresolved"
        );
        ExitCode::SUCCESS
    } else {
        println!("compare: {failing} failing rows");
        ExitCode::FAILURE
    }
}

/// `virtual_time_ns` of the PMCPY-A cell at 24 ranks in a committed
/// `results/ci_baseline/` report (read only).
fn baseline_ns(file: &str) -> Result<u64, String> {
    let path = Path::new("results/ci_baseline").join(file);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let real = doc.get("real_bytes").and_then(Json::as_f64);
    if real != Some(workloads::domain::SELFCHECK_REAL_BYTES as f64) {
        return Err(format!(
            "{}: real_bytes {real:?}, expected 8 MB",
            path.display()
        ));
    }
    doc.get("cells")
        .and_then(Json::as_arr)
        .into_iter()
        .flatten()
        .find(|c| {
            c.get("library").and_then(Json::as_str) == Some("PMCPY-A")
                && c.get("nprocs").and_then(Json::as_f64) == Some(24.0)
        })
        .and_then(|c| c.get("virtual_time_ns"))
        .and_then(Json::as_f64)
        .map(|ns| ns as u64)
        .ok_or_else(|| format!("{}: no PMCPY-A cell at 24 ranks", path.display()))
}

/// The benchmark checking itself against what the repository already gates:
/// at 8 MB real the domain cells must reproduce the committed Fig. 6/7
/// virtual times to the nanosecond, tracing must not move the virtual clock,
/// and the phase totals must tile the rank lanes.
fn selfcheck() -> ExitCode {
    run::pin_to_first_cpu();
    let mut failures = 0;
    let mut verdict = |ok: bool, what: String| {
        println!("{} {what}", if ok { "PASS" } else { "FAIL" });
        failures += usize::from(!ok);
    };
    let cfg = |traced| IterCfg {
        seed: 1,
        iteration: u32::from(traced),
        traced,
        collapse: false,
        scale: Scale::Selfcheck,
    };
    for w in &workloads::ALL {
        let workload = w.name;
        let plain = w.run(&cfg(false));
        let traced = w.run(&cfg(true));
        match w.ci_baseline.map(baseline_ns) {
            Some(Ok(ns)) => verdict(
                plain.sim_ns == ns,
                format!(
                    "{workload}: sim_s {} ns, ci_baseline PMCPY-A@24 {ns} ns",
                    plain.sim_ns
                ),
            ),
            Some(Err(e)) => verdict(false, format!("{workload}: {e}")),
            None => {}
        }
        verdict(
            traced.sim_ns == plain.sim_ns,
            format!(
                "{workload}: traced sim_s {} ns, untraced {} ns",
                traced.sim_ns, plain.sim_ns
            ),
        );
        let mut v = layers::Values::default();
        layers::counters(&traced, &mut v);
        let residual = v.get("core.tiling_residual_ns");
        verdict(
            residual == Some(0.0),
            format!("{workload}: core.tiling_residual_ns = {residual:?}"),
        );
        let failed = plain.ops_failed + traced.ops_failed;
        verdict(
            failed == 0,
            format!("{workload}: ops_failed = {failed} {:?}", plain.failures),
        );
    }
    if failures == 0 {
        println!("selfcheck: all passed");
        ExitCode::SUCCESS
    } else {
        println!("selfcheck: {failures} failed");
        ExitCode::FAILURE
    }
}
