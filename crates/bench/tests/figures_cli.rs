//! The `figures` and `perfgate` command lines, driven as binaries: a bad
//! invocation is rejected from the experiment table before anything runs
//! (exit 2, generated usage, never a panic), and `perfgate` treats a field
//! the fresh report lost as a regression.

use pmemcpy_bench::TABLE;
use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `figures` in a fresh scratch directory, so `results/` lands there.
fn figures(test: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("figures_cli_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    (out, dir)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A typo, and two commands the table no longer has.
#[test]
fn unknown_command_after_a_valid_one_runs_nothing() {
    for unknown in ["typo", "ablate-chunked", "ablate-buckets"] {
        let (out, dir) = figures(unknown, &["--bytes", "8", "fig6", unknown]);
        assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
        assert!(stderr(&out).contains(&format!("unknown command {unknown:?}")));
        assert!(out.stdout.is_empty(), "something ran before the rejection");
        assert!(!dir.join("results/fig6_writes.csv").exists());
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn bad_flag_values_exit_2_with_usage_and_no_panic() {
    for (i, args) in [
        &["--bytes", "x", "api"][..],
        &["--procs", "8,,24", "api"],
        &["--procs", "", "api"],
        &["--procs", "0", "api"],
        &["--storm-keys", "many", "api"],
        &["--storm-keys", "0", "api"],
        &["--profiles", "optane-gen1,", "api"],
        &["--no-such-flag", "1", "api"],
        &["api", "--bytes"],
    ]
    .into_iter()
    .enumerate()
    {
        let (out, dir) = figures(&format!("bad_flag_{i}"), args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains("usage: figures"), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        std::fs::remove_dir_all(dir).unwrap();
    }
}

#[test]
fn unknown_profile_exits_2_listing_the_profiles() {
    let (out, dir) = figures("profile", &["--profile", "no-such-device", "machine"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("unknown device profile \"no-such-device\""));
    for name in pmem_sim::profile::profile_names() {
        assert!(err.contains(name), "{name} missing from: {err}");
    }
    std::fs::remove_dir_all(dir).unwrap();
}

/// The usage text is generated from the table, and the binary's module
/// header quotes it line for line.
#[test]
fn usage_names_every_table_row_and_is_the_module_header() {
    let (out, dir) = figures("usage", &["typo"]);
    let err = stderr(&out);
    let usage = &err[err.find("usage: figures").expect("usage printed")..];
    for exp in TABLE {
        assert!(
            usage.contains(&format!("\n  {:<18} ", exp.name)),
            "{} missing from usage",
            exp.name
        );
    }
    let header = include_str!("../src/bin/figures.rs");
    for line in usage.lines() {
        let quoted = format!("//! {line}");
        assert!(
            header.contains(quoted.trim_end()),
            "figures.rs header lacks usage line {line:?}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}

#[test]
fn a_table_command_runs_and_exits_0() {
    let (out, dir) = figures("api", &["api"]);
    assert_eq!(out.status.code(), Some(0), "{}", stderr(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("API complexity"));
    std::fs::remove_dir_all(dir).unwrap();
}

/// `text` with the first `"key":<number>,` removed.
fn without(text: &str, key: &str) -> String {
    let start = text.find(&format!("\"{key}\":")).expect("key present");
    let len = text[start..].find(',').expect("not the last field") + 1;
    format!("{}{}", &text[..start], &text[start + len..])
}

#[test]
fn perfgate_fails_when_the_fresh_report_lost_a_field() {
    let baseline = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/ci_baseline/BENCH_fig6_wb.json"
    );
    let text = std::fs::read_to_string(baseline).unwrap();
    let dir = std::env::temp_dir().join(format!("perfgate_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let gate = |name: &str, fresh: &str| {
        let path = dir.join(name);
        std::fs::write(&path, fresh).unwrap();
        Command::new(env!("CARGO_BIN_EXE_perfgate"))
            .arg(&path)
            .arg(baseline)
            .output()
            .unwrap()
    };
    let same = gate("same.json", &text);
    assert!(same.status.success(), "{}", stderr(&same));
    for key in ["virtual_time_ns", "pool_txs"] {
        let out = gate(&format!("no_{key}.json"), &without(&text, key));
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(1), "{key}: {err}");
        assert!(
            err.contains(&format!("{key} missing from the fresh report")),
            "{key}: {err}"
        );
    }
    std::fs::remove_dir_all(dir).unwrap();
}
